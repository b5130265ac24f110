"""LoRaWAN indoor-propagation toolkit.

Airtime and duty-cycle arithmetic, link-budget quantities, adaptive data
rate, multi-wall path-loss models with environmental covariates, a
least-squares fitter and the data cleaning/evaluation pipeline, all behind
one CLI (``loraprop``).
"""

__version__ = "0.1.0"

from .errors import FitError, InvalidConfigError, InvalidDataError, LorapropError  # noqa: E402,F401
from .lora_phy import (  # noqa: E402,F401
    DutyCycleReport,
    RadioConfig,
    bit_rate,
    duty_cycle,
    payload_symbols,
    symbol_duration,
    time_on_air,
)
from .link_budget import (  # noqa: E402,F401
    DEFAULT_LINK_BUDGET,
    SF_THRESHOLDS,
    LinkBudgetParams,
    SfThreshold,
    esp,
    experimental_path_loss,
    noise_power,
    receivable,
)
from .adr import AdrDecision, AdrState, adr_step, record_snr, snr_margin  # noqa: E402,F401
from .propagation import (  # noqa: E402,F401
    ENV_FIELDS,
    ModelVariant,
    PathLossModel,
    SceneSpec,
    ShadowingSpec,
    WallCounts,
    load_model,
    predict,
    sample_shadowing,
    save_model,
    shadowing_pdf,
    simulate_scene,
)
from .records import CSV_COLUMNS, FEATURE_FIELDS, ObservationTable  # noqa: E402,F401
from .fitting import FitConfig, FitReport, fit  # noqa: E402,F401
from .pipeline import (  # noqa: E402,F401
    IsolationForestConfig,
    SplitSpec,
    dedup_retransmissions,
    filter_sf,
    ingest,
    isolation_forest,
    kfold,
    run_pipeline,
    split,
    standardize,
)
from .metrics import EvalReport, pdr, r_squared, residual_stats, rmse  # noqa: E402,F401
from .evaluation import cross_validate, evaluate_model  # noqa: E402,F401
