"""Model evaluation against observation sets: single-subset reports and the
k-fold cross-validation harness.

This module composes the fitter, the splitter and the metric primitives; the
statistics themselves live in :mod:`loraprop.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import FitConfig, fit, predictions
from .metrics import EvalReport, evaluate_predictions
from .pipeline import kfold
from .propagation import PathLossModel, params_from_model
from .records import ObservationTable


def evaluate_model(
    model: PathLossModel, observations: ObservationTable
) -> EvalReport:
    """Metrics of a fitted model on an observation table."""
    predicted = predictions(
        params_from_model(model),
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
    shared across folds so differences reflect the data only.
    """
    reports: list[FoldReport] = []
    for fold_index, (train_idx, validation_idx) in enumerate(
        kfold(observations, folds, seed)
    ):
        train = observations.take(train_idx)
        validation = observations.take(validation_idx)
        report = fit(train, variant, config)
        model = report.to_model()
        reports.append(
            FoldReport(
                fold=fold_index,
                train=evaluate_model(model, train),
                validation=evaluate_model(model, validation),
            )
        )
    return CrossValReport(folds=tuple(reports))
