"""Multi-wall log-distance path-loss prediction with log-normal shadowing.

Two model variants are implemented: the structural baseline (distance plus
per-material wall penalties) and the extended form that adds a fixed
frequency term, linear environmental covariates and an SNR term.  Predictions
return the deterministic part only; the random shadowing term is sampled or
evaluated separately so fitting can target the deterministic component and
estimate the shadowing spread from residuals.

The coefficient layout and the formula live here once: every prediction
(the scalar predictors, the fitter's design matrix and the scene simulator)
is built from :func:`predictor_columns` and :func:`fixed_term`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .errors import InvalidConfigError, InvalidDataError
from .jsonio import read_json, write_json

#: dB-to-natural-log conversion constant, 10 / ln 10.
XI = 10.0 / math.log(10.0)

#: Wall materials the multi-wall term distinguishes.  The mapping-based
#: model keeps other materials possible without touching the predictors.
WALL_TYPES = ("brick", "wood")

#: Canonical ordering of the environmental covariates, used for coefficient
#: vectors and design matrices everywhere in the package.
ENV_FIELDS = ("temperature", "humidity", "pressure", "pm25", "co2")


class ModelVariant(str, enum.Enum):
    MW = "mw"
    MW_EP = "mw-ep"


@dataclass(frozen=True)
class WallCounts:
    """Number of walls of each material crossed by the direct path."""

    brick: int = 0
    wood: int = 0

    def __post_init__(self) -> None:
        if self.brick < 0 or self.wood < 0:
            raise InvalidConfigError("wall counts must be >= 0")


@dataclass(frozen=True)
class EnvVector:
    """Environmental covariates attached to one observation."""

    temperature_c: float
    humidity_pct: float
    pressure_hpa: float
    pm25_ugm3: float
    co2_ppm: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.humidity_pct <= 100.0:
            raise InvalidConfigError(
                f"humidity_pct must be in [0, 100], got {self.humidity_pct}"
            )
        # co2 >= 0 rather than > 0: the all-zero vector is the canonical way
        # to switch the covariate block off when exercising the intercept.
        if self.co2_ppm < 0:
            raise InvalidConfigError(f"co2_ppm must be >= 0, got {self.co2_ppm}")
        if self.pm25_ugm3 < 0:
            raise InvalidConfigError(f"pm25_ugm3 must be >= 0, got {self.pm25_ugm3}")


@dataclass(frozen=True)
class PathLossModel:
    """Coefficient set for either model variant.

    ``intercept_db`` absorbs the loss at the reference distance; for the
    extended variant it also absorbs whatever constant share the frequency
    term contributes, because frequency enters in MHz.  Intercepts of the
    two variants are therefore not comparable across unit conventions.
    """

    variant: ModelVariant
    intercept_db: float
    path_loss_exponent: float
    wall_loss_db: Mapping[str, float]
    env_coeffs: Mapping[str, float] = field(default_factory=dict)
    snr_coeff: float | None = None
    shadowing_sigma_db: float = 0.0
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0:
            raise InvalidConfigError("path_loss_exponent must be positive")
        if self.shadowing_sigma_db < 0:
            raise InvalidConfigError("shadowing_sigma_db must be >= 0")
        if self.reference_distance_m <= 0:
            raise InvalidConfigError("reference_distance_m must be positive")
        if self.variant is ModelVariant.MW and (self.env_coeffs or self.snr_coeff is not None):
            raise InvalidConfigError(
                "the structural variant takes no environmental or SNR coefficients"
            )
        unknown = set(self.env_coeffs) - set(ENV_FIELDS)
        if unknown:
            raise InvalidConfigError(f"unknown environmental coefficients: {sorted(unknown)}")


@dataclass(frozen=True)
class ShadowingSpec:
    """dB-domain Gaussian shadowing: zero-mean by default, spread sigma."""

    sigma_db: float
    mean_db: float = 0.0

    xi = XI

    def __post_init__(self) -> None:
        if self.sigma_db <= 0:
            raise InvalidConfigError(f"sigma_db must be positive, got {self.sigma_db}")


#: Coefficient order of each variant: intercept, exponent, one loss per wall
#: material and, for the extended variant, one slope per covariate plus the
#: SNR slope.  Predictor columns and fitted parameter vectors follow it.
_STRUCTURAL_PARAMS = ("intercept_db", "path_loss_exponent") + tuple(
    f"wall_{material}_db" for material in WALL_TYPES
)
PARAM_NAMES: dict[ModelVariant, tuple[str, ...]] = {
    ModelVariant.MW: _STRUCTURAL_PARAMS,
    ModelVariant.MW_EP: _STRUCTURAL_PARAMS
    + tuple(f"env_{name}" for name in ENV_FIELDS)
    + ("snr_coeff",),
}


def check_params(params, variant: ModelVariant) -> np.ndarray:
    """The coefficient vector as floats, if its length matches the variant."""
    params = np.asarray(params, dtype=float)
    expected = len(PARAM_NAMES[variant])
    if params.shape != (expected,):
        raise InvalidDataError(
            f"parameter vector has shape {params.shape}, expected ({expected},)"
        )
    return params


def params_from_model(model: PathLossModel) -> np.ndarray:
    """Coefficient vector of a model, in :data:`PARAM_NAMES` order."""
    values = [model.intercept_db, model.path_loss_exponent]
    values.extend(model.wall_loss_db.get(material, 0.0) for material in WALL_TYPES)
    if model.variant is ModelVariant.MW_EP:
        values.extend(model.env_coeffs.get(name, 0.0) for name in ENV_FIELDS)
        values.append(model.snr_coeff or 0.0)
    return np.array(values)


def model_from_params(
    variant: ModelVariant,
    params,
    shadowing_sigma_db: float = 0.0,
    reference_distance_m: float = 1.0,
) -> PathLossModel:
    """Inverse of :func:`params_from_model`."""
    values = check_params(params, variant).tolist()
    extended = variant is ModelVariant.MW_EP
    return PathLossModel(
        variant=variant,
        intercept_db=values[0],
        path_loss_exponent=values[1],
        wall_loss_db=dict(zip(WALL_TYPES, values[2:4])),
        env_coeffs=dict(zip(ENV_FIELDS, values[4:9])) if extended else {},
        snr_coeff=values[9] if extended else None,
        shadowing_sigma_db=shadowing_sigma_db,
        reference_distance_m=reference_distance_m,
    )


def _log10(values: np.ndarray) -> np.ndarray:
    """``math.log10`` per value; ``np.log10`` can differ from it in the last
    bit, which would move every fitted output."""
    return np.fromiter(map(math.log10, values), float, values.size)


#: Per-row inputs of the predictor columns that follow the intercept and
#: the log-distance, named after the CSV columns they are read from.
PREDICTOR_INPUTS: dict[ModelVariant, tuple[str, ...]] = {
    ModelVariant.MW: ("c_walls", "w_walls"),
    ModelVariant.MW_EP: ("c_walls", "w_walls") + ENV_FIELDS + ("snr",),
}


def predictor_columns(
    variant: ModelVariant, column: Callable[[str], Any], reference_distance_m: float
) -> np.ndarray:
    """N x p matrix of partial predictors, one column per coefficient in
    :data:`PARAM_NAMES` order: all-ones intercept, ``10 log10(d/d0)``, then
    the :data:`PREDICTOR_INPUTS`.  ``column(name)`` returns the N values of
    one input, ``"distance"`` included.  Distances below d0 are rejected: the
    formula is not defined there.
    """
    distance = np.asarray(column("distance"), dtype=float)
    if np.any(distance < reference_distance_m):
        raise InvalidConfigError(
            f"distance {distance.min()} m is below the reference distance "
            f"{reference_distance_m} m"
        )
    inputs = PREDICTOR_INPUTS[variant]
    x = np.empty((distance.size, 2 + len(inputs)))
    x[:, 0] = 1.0
    x[:, 1] = 10.0 * _log10(distance / reference_distance_m)
    for k, name in enumerate(inputs, start=2):
        x[:, k] = column(name)
    return x


def fixed_term(variant: ModelVariant, column: Callable[[str], Any], rows: int) -> np.ndarray:
    """Per-row additive loss with no free coefficient, for ``rows`` rows:
    ``20 log10(f / MHz)`` with ``f = column("frequency")`` for the extended
    variant, none for the structural one."""
    if variant is ModelVariant.MW:
        return np.zeros(rows)
    freq_mhz = np.asarray(column("frequency"), dtype=float)
    if np.any(freq_mhz <= 0):
        raise InvalidConfigError(f"frequency must be positive, got {freq_mhz.min()} MHz")
    return 20.0 * _log10(freq_mhz)


def _predict_row(model, distance_m, walls, freq_mhz=0.0, env=None, snr_db=0.0) -> float:
    """One-row form of the vectorised prediction ``x @ params + fixed``."""
    row = dict(
        distance=distance_m, c_walls=walls.brick, w_walls=walls.wood, frequency=freq_mhz, snr=snr_db
    )
    if env is not None:
        values = (env.temperature_c, env.humidity_pct, env.pressure_hpa, env.pm25_ugm3, env.co2_ppm)
        row.update(zip(ENV_FIELDS, values))

    def column(name: str) -> list[float]:
        return [row[name]]

    x = predictor_columns(model.variant, column, model.reference_distance_m)
    return float((x @ params_from_model(model) + fixed_term(model.variant, column, 1))[0])


def predict_mw(model: PathLossModel, distance_m: float, walls: WallCounts) -> float:
    """Deterministic path loss of the structural variant, in dB."""
    if model.variant is not ModelVariant.MW:
        raise InvalidConfigError(f"expected an '{ModelVariant.MW.value}' model")
    return _predict_row(model, distance_m, walls)


def predict_mw_ep(
    model: PathLossModel,
    distance_m: float,
    walls: WallCounts,
    freq_mhz: float,
    env: EnvVector,
    snr_db: float,
) -> float:
    """Deterministic path loss of the extended variant, in dB.

    Adds 20*log10(frequency in MHz), the linear covariate terms and the SNR
    term on top of the structural part.
    """
    if model.variant is not ModelVariant.MW_EP:
        raise InvalidConfigError(f"expected an '{ModelVariant.MW_EP.value}' model")
    return _predict_row(model, distance_m, walls, freq_mhz, env, snr_db)


def shadowing_pdf(spec: ShadowingSpec, eps_linear):
    """Density of the linear-scale shadowing factor.

    This is the change-of-variables transform of the dB-domain Gaussian:
    ``xi / (sqrt(2 pi) sigma eps) * exp(-(10 log10 eps - mu)^2 / (2 sigma^2))``
    for ``eps > 0``.  Accepts scalars or arrays.
    """
    eps = np.asarray(eps_linear, dtype=float)
    if np.any(eps <= 0):
        raise InvalidDataError("the linear shadowing factor must be positive")
    z = (10.0 * np.log10(eps) - spec.mean_db) / spec.sigma_db
    density = XI / (math.sqrt(2.0 * math.pi) * spec.sigma_db * eps) * np.exp(-0.5 * z * z)
    return float(density) if np.isscalar(eps_linear) else density


def sample_shadowing(spec: ShadowingSpec, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` dB-domain shadowing values; deterministic per seed."""
    if count < 0:
        raise InvalidDataError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    return rng.normal(spec.mean_db, spec.sigma_db, size=count)


#: Walls a simulated scene may hold at its minimum wall spacing.
MAX_SCENE_WALLS = 10**6


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic single-corridor scene for simulation sweeps.

    Walls are placed at independent uniform spacings and each wall draws an
    independent uniform penetration loss and a material label.  Distances
    sweep linearly from the reference distance to ``max_distance_m``.
    """

    max_distance_m: float
    num_points: int = 200
    reference_distance_m: float = 1.0
    reference_loss_db: float = 40.0
    path_loss_exponent: float = 3.5
    shadowing_sigma_db: float = 9.0
    wall_spacing_m: tuple[float, float] = (4.0, 10.0)
    wall_loss_db: tuple[float, float] = (5.0, 12.0)

    def __post_init__(self) -> None:
        if self.reference_distance_m <= 0:
            raise InvalidConfigError("reference_distance_m must be positive")
        if self.max_distance_m <= self.reference_distance_m:
            raise InvalidConfigError(
                "max_distance_m must exceed the reference distance"
            )
        if self.num_points < 1:
            raise InvalidConfigError("num_points must be >= 1")
        if self.shadowing_sigma_db < 0:
            raise InvalidConfigError("shadowing_sigma_db must be >= 0")
        lo, hi = self.wall_spacing_m
        if not 0 < lo <= hi:
            raise InvalidConfigError("wall_spacing_m must satisfy 0 < low <= high")
        # written so that NaN fails it too: the wall loop would never end
        if not self.max_distance_m / lo <= MAX_SCENE_WALLS:
            raise InvalidConfigError(
                f"{self.max_distance_m / lo:g} walls at the minimum wall spacing"
                f" exceed the {MAX_SCENE_WALLS} a scene may hold"
            )
        lo, hi = self.wall_loss_db
        if lo > hi:
            raise InvalidConfigError("wall_loss_db low bound exceeds high bound")


@dataclass(frozen=True)
class SceneSample:
    distance_m: float
    walls: WallCounts
    true_path_loss_db: float
    noisy_path_loss_db: float


def simulate_scene(spec: SceneSpec, seed: int) -> list[SceneSample]:
    """Evaluate the structural model along a distance sweep through a random
    wall layout, with shadowing added on top of the deterministic loss.

    Draw order is fixed (wall positions, materials, losses, then the per-point
    shadowing), so a seed pins the whole scene.
    """
    rng = np.random.default_rng(seed)

    positions: list[float] = []
    pos = 0.0
    while True:
        pos += rng.uniform(*spec.wall_spacing_m)
        if pos > spec.max_distance_m:
            break
        positions.append(pos)
    materials = [WALL_TYPES[rng.integers(len(WALL_TYPES))] for _ in positions]
    losses = [rng.uniform(*spec.wall_loss_db) for _ in positions]

    distances = np.linspace(spec.reference_distance_m, spec.max_distance_m, spec.num_points)
    if spec.shadowing_sigma_db > 0:
        noise = rng.normal(0.0, spec.shadowing_sigma_db, size=spec.num_points)
    else:
        noise = np.zeros(spec.num_points)

    # walls crossed up to each distance, as prefix sums over the sorted positions
    crossed = np.searchsorted(positions, distances, side="right")
    brick = np.cumsum([0] + [material == "brick" for material in materials])[crossed]
    wood = crossed - brick
    inputs = {"distance": distances, "c_walls": brick, "w_walls": wood}
    x = predictor_columns(ModelVariant.MW, inputs.__getitem__, spec.reference_distance_m)
    true_pl = (
        spec.reference_loss_db * x[:, 0]
        + spec.path_loss_exponent * x[:, 1]
        + np.cumsum([0.0] + losses)[crossed]
    )
    columns = (distances, brick, wood, true_pl, true_pl + noise)
    return [
        SceneSample(d, WallCounts(b, w), pl, noisy)
        for d, b, w, pl, noisy in zip(*(c.tolist() for c in columns))
    ]


def model_to_dict(model: PathLossModel) -> dict:
    """JSON-ready representation of a model."""
    payload = {
        "variant": model.variant.value,
        "intercept_db": model.intercept_db,
        "path_loss_exponent": model.path_loss_exponent,
        "wall_loss_db": dict(model.wall_loss_db),
        "shadowing_sigma_db": model.shadowing_sigma_db,
        "reference_distance_m": model.reference_distance_m,
    }
    if model.variant is ModelVariant.MW_EP:
        payload["env_coeffs"] = dict(model.env_coeffs)
        payload["snr_coeff"] = model.snr_coeff
    return payload


def model_from_dict(payload: Mapping) -> PathLossModel:
    try:
        variant = ModelVariant(payload["variant"])
        return PathLossModel(
            variant=variant,
            intercept_db=float(payload["intercept_db"]),
            path_loss_exponent=float(payload["path_loss_exponent"]),
            wall_loss_db={k: float(v) for k, v in payload["wall_loss_db"].items()},
            env_coeffs={k: float(v) for k, v in payload.get("env_coeffs", {}).items()},
            snr_coeff=(
                float(payload["snr_coeff"])
                if payload.get("snr_coeff") is not None
                else None
            ),
            shadowing_sigma_db=float(payload.get("shadowing_sigma_db", 0.0)),
            reference_distance_m=float(payload.get("reference_distance_m", 1.0)),
        )
    except InvalidConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidConfigError(f"invalid model description: {exc}") from exc


def save_model(model: PathLossModel, path: str | Path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str | Path) -> PathLossModel:
    return model_from_dict(read_json(path))
