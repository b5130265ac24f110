"""Closed-form LoRa PHY arithmetic.

Symbol duration, bit rate, payload symbol count, time on air and hourly
duty-cycle accounting for chirp-spread-spectrum uplinks.  All functions are
pure and operate on :class:`RadioConfig` value objects, so they are safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidConfigError
from .records import COLUMN_RANGES

MS_PER_HOUR = 3_600_000.0

#: The bandwidths a LoRa radio transmits on, in Hz: 7.8 to 500 kHz.
LORA_BANDWIDTHS_HZ = (7_800.0, 10_400.0, 15_600.0, 20_800.0, 31_250.0, 41_700.0, 62_500.0,
                      125_000.0, 250_000.0, 500_000.0)

#: Preamble end marker: a LoRa preamble contributes 4.25 extra symbol times
#: (sync word + quarter symbol) on top of the programmed preamble length.
PREAMBLE_OVERHEAD_SYMBOLS = 4.25


@dataclass(frozen=True)
class RadioConfig:
    """PHY parameters of one LoRa transmission.

    ``cr_index`` is the ``n`` in the coding rate 4/(4+n), so 1 means 4/5 and
    4 means 4/8.  ``implicit_header=True`` removes the 20-bit explicit header
    from the payload symbol budget; note that this is the opposite of stacks
    whose header flag means "explicit header present".  ``low_dr_opt`` is the
    low-data-rate optimisation bit.
    """

    sf: int
    bw_hz: float
    payload_bytes: int
    cr_index: int = 1
    preamble_symbols: int = 8
    crc_on: bool = True
    implicit_header: bool = False
    low_dr_opt: bool = False

    def __post_init__(self) -> None:
        low, high = COLUMN_RANGES["SF"]
        if not low <= self.sf <= high:
            raise InvalidConfigError(f"sf must be in {low}..{high}, got {self.sf}")
        if self.bw_hz not in LORA_BANDWIDTHS_HZ:
            raise InvalidConfigError(
                f"bw_hz must be a LoRa bandwidth"
                f" ({', '.join(f'{bw:g}' for bw in LORA_BANDWIDTHS_HZ)} Hz), got {self.bw_hz}"
            )
        if not 1 <= self.cr_index <= 4:
            raise InvalidConfigError(f"cr_index must be in 1..4, got {self.cr_index}")
        if not 1 <= self.payload_bytes <= 255:
            raise InvalidConfigError(
                f"payload_bytes must be in 1..255, got {self.payload_bytes}"
            )
        if self.preamble_symbols < 0:
            raise InvalidConfigError(
                f"preamble_symbols must be >= 0, got {self.preamble_symbols}"
            )


@dataclass(frozen=True)
class DutyCycleReport:
    """Hourly airtime budget of a transmission schedule."""

    total_airtime_ms_per_hour: float
    duty_cycle_fraction: float
    per_sf_airtime_ms: dict[int, float]
    limit: float
    compliant: bool
    #: Indices of schedule entries whose own airtime already exceeds the limit.
    violations: tuple[int, ...]


def symbol_duration(cfg: RadioConfig) -> float:
    """Symbol time in seconds: 2^SF / BW."""
    return (2**cfg.sf) / cfg.bw_hz


def bit_rate(cfg: RadioConfig) -> float:
    """Useful bit rate in bit/s: SF * BW / 2^SF scaled by the coding rate."""
    coding_rate = 4.0 / (4.0 + cfg.cr_index)
    return cfg.sf * cfg.bw_hz / (2**cfg.sf) * coding_rate


def payload_symbols(cfg: RadioConfig) -> int:
    """Number of payload symbols in one packet.

    The ceiling is taken on exact integer arithmetic so marginal payload
    sizes never gain or lose a symbol block to float round-off.  The result
    is always at least the 8-symbol floor.
    """
    crc = 1 if cfg.crc_on else 0
    header = 1 if cfg.implicit_header else 0
    de = 1 if cfg.low_dr_opt else 0
    denominator = 4 * (cfg.sf - 2 * de)
    numerator = 8 * cfg.payload_bytes - 4 * cfg.sf + 28 + 16 * crc - 20 * header
    ceil_blocks = -(-numerator // denominator)
    return 8 + max(ceil_blocks * (cfg.cr_index + 4), 0)


def time_on_air(cfg: RadioConfig) -> float:
    """Total channel occupancy of one packet in seconds."""
    t_symbol = symbol_duration(cfg)
    n_total = cfg.preamble_symbols + PREAMBLE_OVERHEAD_SYMBOLS + payload_symbols(cfg)
    return n_total * t_symbol


def duty_cycle(
    schedule: list[tuple[RadioConfig, float]],
    limit: float = 0.01,
) -> DutyCycleReport:
    """Aggregate airtime of ``(config, transmissions per hour)`` entries.

    The regulatory limit is a parameter because EU868 sub-bands carry either
    a 1% or a 0.1% cap.
    """
    if limit <= 0:
        raise InvalidConfigError(f"duty-cycle limit must be positive, got {limit}")
    total_ms = 0.0
    per_sf: dict[int, float] = {}
    violations: list[int] = []
    for index, (cfg, count) in enumerate(schedule):
        if count < 0:
            raise InvalidConfigError(
                f"transmission count must be >= 0, got {count} at entry {index}"
            )
        airtime_ms = time_on_air(cfg) * 1e3 * count
        total_ms += airtime_ms
        per_sf[cfg.sf] = per_sf.get(cfg.sf, 0.0) + airtime_ms
        if airtime_ms / MS_PER_HOUR > limit:
            violations.append(index)
    fraction = total_ms / MS_PER_HOUR
    return DutyCycleReport(
        total_airtime_ms_per_hour=total_ms,
        duty_cycle_fraction=fraction,
        per_sf_airtime_ms=per_sf,
        limit=limit,
        compliant=fraction <= limit,
        violations=tuple(violations),
    )
