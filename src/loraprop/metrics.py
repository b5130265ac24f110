"""Evaluation statistics: RMSE, coefficient of determination, residual
moments and the frame-counter-based packet delivery ratio.

Pure functions on sequences; nothing here touches models or files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDataError

#: Frame counters wrap at 16 bits on the wire.
FRAME_COUNTER_MODULUS = 2**16


@dataclass(frozen=True)
class EvalReport:
    """Summary of predicted-vs-measured path loss on one subset."""

    rmse_db: float
    r2: float
    residual_mean_db: float
    residual_skewness: float
    shadowing_sigma_db: float
    n_observations: int


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise InvalidDataError(f"length mismatch: {a.shape} vs {p.shape}")
    if a.size == 0:
        raise InvalidDataError("empty input")
    return float(np.sqrt(np.mean((a - p) ** 2)))


def r_squared(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """1 - SS_res/SS_tot about the mean of ``actual``; may be negative."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise InvalidDataError(f"length mismatch: {a.shape} vs {p.shape}")
    if a.size < 2:
        raise InvalidDataError("need at least two observations")
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise InvalidDataError("actual values are constant")
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


def residual_stats(residuals: Sequence[float]) -> tuple[float, float, float]:
    """Mean, sample skewness and spread of a residual sample.

    Skewness is the (biased) moment ratio m3 / m2^(3/2); the spread is the
    uncorrected standard deviation, which doubles as the shadowing estimate
    because an unbiased fit leaves zero-mean residuals.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size < 3:
        raise InvalidDataError("need at least three residuals")
    mean = float(r.mean())
    centred = r - mean
    m2 = float(np.mean(centred**2))
    m3 = float(np.mean(centred**3))
    if m2 == 0.0:
        raise InvalidDataError("residuals are constant")
    skewness = m3 / m2**1.5
    return mean, skewness, float(np.sqrt(m2))


def evaluate_predictions(
    actual: Sequence[float], predicted: Sequence[float]
) -> EvalReport:
    """Bundle the standard metrics for one actual/predicted pair of vectors."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    residuals = a - p
    mean, skewness, sigma = residual_stats(residuals)
    return EvalReport(
        rmse_db=rmse(a, p),
        r2=r_squared(a, p),
        residual_mean_db=mean,
        residual_skewness=skewness,
        shadowing_sigma_db=sigma,
        n_observations=int(a.size),
    )


def pdr(frame_counters: Sequence[int]) -> float:
    """Packet delivery ratio inferred from frame-counter gaps.

    ``expected`` spans first to last counter inclusive after unwrapping the
    16-bit rollover, a backward jump of more than half the modulus, and
    splicing each counter reset (rejoin or reboot), a smaller one, on after
    the counter before it; ``received`` counts distinct unwrapped values, so
    retransmissions do not inflate the ratio.
    """
    if len(frame_counters) == 0:
        raise InvalidDataError("empty counter sequence")
    unwrapped: list[int] = []
    offset = 0
    previous = None
    for counter in frame_counters:
        if previous is not None and counter < previous:
            jump = previous - counter
            offset += FRAME_COUNTER_MODULUS if jump > FRAME_COUNTER_MODULUS // 2 else jump + 1
        unwrapped.append(counter + offset)
        previous = counter
    expected = unwrapped[-1] - unwrapped[0] + 1
    received = len(set(unwrapped))
    return received / expected
