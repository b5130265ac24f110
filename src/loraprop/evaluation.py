"""Model evaluation against observation sets: single-subset reports and the
k-fold cross-validation harness.

This module composes the fitter, the splitter and the metric primitives; the
statistics themselves live in :mod:`loraprop.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fitting
from .fitting import FitConfig, fit, fit_design, predictions  # noqa: F401 (perfbench traces evaluation.fit)
from .metrics import EvalReport, evaluate_predictions
from .pipeline import kfold
from .propagation import PathLossModel, path_loss
from .records import ObservationTable


def evaluate_model(
    model: PathLossModel, observations: ObservationTable
) -> EvalReport:
    """Metrics of a fitted model on an observation table."""
    predicted = predictions(
        model.params,
        observations,
        model.variant,
        model.reference_distance_m,
    )
    return evaluate_predictions(observations["exp_pl"], predicted)


@dataclass(frozen=True)
class FoldReport:
    fold: int
    train: EvalReport
    validation: EvalReport


@dataclass(frozen=True)
class CrossValReport:
    """Per-fold metrics plus their across-fold mean and standard deviation."""

    folds: tuple[FoldReport, ...]

    def aggregate(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for subset in ("train", "validation"):
            for metric in ("rmse_db", "r2", "residual_mean_db", "residual_skewness"):
                values = np.array(
                    [getattr(getattr(f, subset), metric) for f in self.folds]
                )
                out[f"{subset}_{metric}"] = {
                    "mean": float(values.mean()),
                    "std": float(values.std()),
                }
        return out


def cross_validate(
    observations: ObservationTable,
    variant,
    folds: int = 5,
    seed: int = 42,
    config: FitConfig | None = None,
) -> CrossValReport:
    """Refit on each fold complement and score both subsets.

    Folds come from the shuffled k-fold partition; the fit configuration is
    shared across folds so differences reflect the data only.  X and the fixed term
    are built once and sliced per fold: a row of them depends on its observation only.
    """
    config = config or FitConfig()
    index = kfold(observations, folds, seed)
    x = fitting.design_matrix(observations, variant, config.reference_distance_m)
    fixed = fitting.fixed_offsets(observations, variant)
    measured = observations["exp_pl"]
    y = measured - fixed
    reports: list[FoldReport] = []
    for fold_index, sides in enumerate(index):  # sides: (train rows, validation rows)
        # to_model applies the model's own checks (a positive exponent) to each fold's fit
        params = np.array(fit_design(x[sides[0]], y[sides[0]], variant, config).to_model().params)
        scores = [evaluate_predictions(measured[i], path_loss(x[i], params, fixed[i])) for i in sides]
        reports.append(FoldReport(fold_index, *scores))
    return CrossValReport(folds=tuple(reports))
