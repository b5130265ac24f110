"""Network-side adaptive data rate: SNR-margin computation over a message
history and the spreading-factor / transmit-power adjustment step.

States are immutable values; stepping returns a new state, so independent
device histories can be advanced in parallel without locking.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace

from .errors import InvalidConfigError, InvalidDataError
from .link_budget import snr_required
from .records import COLUMN_RANGES

log = logging.getLogger(__name__)


class AdrDecision(enum.Enum):
    LOWER_SF = "lower_sf"
    RAISE_POWER = "raise_power"
    NO_CHANGE = "no_change"


@dataclass(frozen=True)
class AdrState:
    """One device's link-adaptation state.

    ``snr_history`` is a sliding window of the most recent uplink SNRs,
    bounded by ``history_capacity`` (oldest evicted first).
    """

    current_sf: int
    current_power_dbm: float
    snr_history: tuple[float, ...] = ()
    fade_margin_db: float = 10.0
    power_step_db: float = 2.0
    max_power_dbm: float = 14.0
    min_sf: int = 7
    history_capacity: int = 20

    def __post_init__(self) -> None:
        low, high = COLUMN_RANGES["SF"]
        if not low <= self.min_sf <= high:
            raise InvalidConfigError(f"min_sf must be in {low}..{high}, got {self.min_sf}")
        if not self.min_sf <= self.current_sf <= high:
            raise InvalidConfigError(f"current_sf must be in {self.min_sf}..{high}, got {self.current_sf}")
        # powers lie in the package's dBm interval, a fade margin within the
        # width of the SNR interval and a power step within that of the dBm one
        dbm_low, dbm_high = COLUMN_RANGES["rssi"]
        snr_low, snr_high = COLUMN_RANGES["snr"]
        for name, low, high in (
            ("current_power_dbm", dbm_low, dbm_high),
            ("max_power_dbm", dbm_low, dbm_high),
            ("fade_margin_db", 0.0, snr_high - snr_low),
        ):
            if not low <= getattr(self, name) <= high:
                raise InvalidConfigError(f"{name} must be in [{low}, {high}], got {getattr(self, name)}")
        if not 0 < self.power_step_db <= dbm_high - dbm_low:
            raise InvalidConfigError(f"power_step_db must be in (0, {dbm_high - dbm_low}], got {self.power_step_db}")
        if self.current_power_dbm > self.max_power_dbm:
            raise InvalidConfigError(
                f"current power {self.current_power_dbm} exceeds max {self.max_power_dbm}"
            )
        if self.history_capacity < 1:
            raise InvalidConfigError("history_capacity must be >= 1")
        if len(self.snr_history) > self.history_capacity:
            raise InvalidConfigError(
                f"history length {len(self.snr_history)} exceeds capacity "
                f"{self.history_capacity}"
            )


def record_snr(state: AdrState, snr_db: float) -> AdrState:
    """Append one uplink SNR, evicting the oldest entry when full."""
    history = state.snr_history + (snr_db,)
    if len(history) > state.history_capacity:
        history = history[-state.history_capacity :]
    return replace(state, snr_history=history)


def snr_margin(state: AdrState) -> float:
    """Margin of the best recent SNR over the demodulation floor plus fade margin."""
    if not state.snr_history:
        raise InvalidDataError("snr_history is empty")
    return max(state.snr_history) - snr_required(state.current_sf) - state.fade_margin_db


def adr_step(state: AdrState) -> tuple[AdrState, AdrDecision]:
    """One adaptation decision: lower the SF on positive margin, raise power
    once the SF floor is reached, otherwise leave the link alone.

    A non-positive margin above the minimum SF is left unchanged (raising the
    SF again is a policy choice this procedure does not take); the case is
    logged so operators can spot chronically weak links.
    """
    margin = snr_margin(state)
    if margin > 0 and state.current_sf > state.min_sf:
        new_state = replace(state, current_sf=state.current_sf - 1)
        return new_state, AdrDecision.LOWER_SF
    if margin <= 0 and state.current_sf == state.min_sf:
        new_power = min(
            state.current_power_dbm + state.power_step_db, state.max_power_dbm
        )
        if new_power > state.current_power_dbm:
            return replace(state, current_power_dbm=new_power), AdrDecision.RAISE_POWER
        return state, AdrDecision.NO_CHANGE
    if margin <= 0:
        log.warning(
            "negative margin %.2f dB at SF%d (above minimum %d); leaving unchanged",
            margin,
            state.current_sf,
            state.min_sf,
        )
    return state, AdrDecision.NO_CHANGE
