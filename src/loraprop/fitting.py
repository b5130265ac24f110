"""Least-squares estimation of path-loss coefficients via Levenberg-Marquardt.

Both model variants are linear in their coefficients, so the Jacobian is
closed-form and the damped normal-equations iteration converges to the global
optimum; the machinery still runs the full damped loop so the estimator
matches its stated contract (damping schedule, iteration cap, residual-based
shadowing spread) rather than special-casing linearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InvalidConfigError, InvalidDataError
from .propagation import (
    ENV_FIELDS,
    PARAM_NAMES,
    ModelVariant,
    PathLossModel,
    check_params,
    fixed_term,
    predictor_columns,
)
from .records import ObservationTable, check_setting

#: Structural starting point: the simulation presets (40 dB reference loss,
#: exponent 3.5, 9 dB brick, 3 dB wood); covariate coefficients start at zero
#: and the SNR coefficient at -1 (path loss moves against SNR).
_INITIAL_STRUCTURAL = (40.0, 3.5, 9.0, 3.0)


def default_initial_params(variant: ModelVariant) -> np.ndarray:
    if variant is ModelVariant.MW:
        return np.array(_INITIAL_STRUCTURAL)
    return np.array(_INITIAL_STRUCTURAL + (0.0,) * len(ENV_FIELDS) + (-1.0,))


@dataclass(frozen=True)
class FitConfig:
    """Damping schedule and stopping rules for the iterative fit."""

    initial_params: tuple[float, ...] | None = None
    max_iterations: int = 100_000
    rss_tolerance: float = 1e-10
    damping_initial: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 0.1
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.initial_params, (type(None), list, tuple, np.ndarray)):
            raise InvalidConfigError(f"initial_params must be a list of numbers, got {self.initial_params!r}")
        for k, value in enumerate(() if self.initial_params is None else self.initial_params):
            check_setting(f"initial_params[{k}]", value, -math.inf, math.inf, "()")
        check_setting("max_iterations", self.max_iterations, 1, math.inf, "[)")
        check_setting("rss_tolerance", self.rss_tolerance, 0.0, math.inf, "()")
        check_setting("damping_initial", self.damping_initial, 0.0, math.inf, "()")
        check_setting("damping_up", self.damping_up, 1.0, math.inf, "()")
        check_setting("damping_down", self.damping_down, 0.0, 1.0, "()")
        check_setting("reference_distance_m", self.reference_distance_m, 0.0, math.inf, "()")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit: coefficients, fit quality and residual spread."""

    variant: ModelVariant
    params: np.ndarray
    rss: float
    iterations: int
    converged: bool
    residuals: np.ndarray
    shadowing_sigma_db: float
    reference_distance_m: float

    def params_by_name(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(PARAM_NAMES[self.variant], self.params)}

    def to_model(self) -> PathLossModel:
        return PathLossModel(
            self.variant, self.params, self.shadowing_sigma_db, self.reference_distance_m
        )


def design_matrix(
    observations: ObservationTable,
    variant: ModelVariant,
    reference_distance_m: float = 1.0,
) -> np.ndarray:
    """N x p matrix of partial predictors, one column per coefficient; see
    :func:`loraprop.propagation.predictor_columns`."""
    if not observations:
        raise InvalidDataError("no observations")
    return predictor_columns(variant, observations.__getitem__, reference_distance_m)


def fixed_offsets(
    observations: ObservationTable, variant: ModelVariant
) -> np.ndarray:
    """Per-observation additive terms with no free coefficient; see
    :func:`loraprop.propagation.fixed_term`."""
    return fixed_term(variant, observations.__getitem__, len(observations))


def predictions(
    params: np.ndarray,
    observations: ObservationTable,
    variant: ModelVariant,
    reference_distance_m: float = 1.0,
) -> np.ndarray:
    """Predicted path loss per observation for a coefficient vector."""
    params = check_params(params, variant)
    x = design_matrix(observations, variant, reference_distance_m)
    return x @ params + fixed_offsets(observations, variant)


def fit(
    observations: ObservationTable,
    variant: ModelVariant,
    config: FitConfig | None = None,
) -> FitReport:
    """:func:`fit_design` on the table's design matrix and its path loss less the fixed term."""
    config = config or FitConfig()
    x = design_matrix(observations, variant, config.reference_distance_m)
    return fit_design(x, observations["exp_pl"] - fixed_offsets(observations, variant), variant, config)


def fit_design(x: np.ndarray, y: np.ndarray, variant: ModelVariant, config: FitConfig) -> FitReport:
    """Damped least squares of ``y`` on the design matrix ``x``.

    The damping factor shrinks on every accepted step and grows when a trial
    step fails to reduce the RSS; iteration stops on a sub-tolerance relative
    RSS change or at the iteration cap (reported via ``converged``, not an
    error).  Underdetermined and rank-deficient designs are rejected up front.
    """
    p = len(PARAM_NAMES[variant])
    if len(x) < p + 1:
        raise FitError(f"underdetermined: {len(x)} observations for {p} coefficients")
    if np.linalg.matrix_rank(x) < p:
        raise FitError(
            "singular normal equations: the design is rank-deficient "
            "(e.g. all observations at a single distance)"
        )

    if config.initial_params is not None:
        alpha = check_params(np.array(config.initial_params), variant)
    else:
        alpha = default_initial_params(variant)

    xtx = x.T @ x
    identity = np.eye(p)
    residual = y - x @ alpha
    # numpy's pairwise sum, not a BLAS dot, whose threads change the last bit
    current_rss = float(np.sum(residual * residual))
    damping = config.damping_initial
    converged = False
    iterations = 0

    while iterations < config.max_iterations:
        iterations += 1
        step = np.linalg.solve(xtx + damping * identity, x.T @ residual)
        candidate = alpha + step
        candidate_residual = y - x @ candidate
        candidate_rss = float(np.sum(candidate_residual * candidate_residual))
        if candidate_rss <= current_rss:
            relative_drop = (
                (current_rss - candidate_rss) / current_rss if current_rss > 0 else 0.0
            )
            alpha, residual, current_rss = candidate, candidate_residual, candidate_rss
            damping *= config.damping_down
            if current_rss == 0.0 or relative_drop < config.rss_tolerance:
                converged = True
                break
        else:
            damping *= config.damping_up

    sigma = float(np.std(residual))
    return FitReport(
        variant=variant,
        params=alpha,
        rss=current_rss,
        iterations=iterations,
        converged=converged,
        residuals=residual,
        shadowing_sigma_db=sigma,
        reference_distance_m=config.reference_distance_m,
    )


def standard_errors(
    report: FitReport, observations: ObservationTable
) -> np.ndarray:
    """Conventional coefficient standard errors, sqrt(diag((X'X)^-1 s^2)).

    ``s^2`` is the residual variance with the degrees-of-freedom correction
    ``rss / (N - p)``.
    """
    x = design_matrix(observations, report.variant, report.reference_distance_m)
    n, p = x.shape
    if n <= p:
        raise FitError("standard errors need more observations than coefficients")
    s2 = report.rss / (n - p)
    covariance = np.linalg.inv(x.T @ x) * s2
    return np.sqrt(np.diag(covariance))
