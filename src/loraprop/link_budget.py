"""Link-budget arithmetic: effective signal power, noise power, reception
thresholds and experimentally derived path loss.

All quantities are in dB/dBm and computed in double precision; the
identities ``esp - noise_power == snr`` and linear power conservation are
part of the test surface, so no fixed-point shortcuts anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfigError
from .jsonio import read_json
from .propagation import XI


@dataclass(frozen=True)
class LinkBudgetParams:
    """Transmit-side and receive-side gains/losses of one link."""

    tx_power_dbm: float
    tx_cable_loss_db: float
    tx_antenna_gain_dbi: float
    rx_antenna_gain_dbi: float
    rx_cable_loss_db: float
    tx_antenna_height_m: float
    rx_antenna_height_m: float

    def __post_init__(self) -> None:
        # NaN passes every comparison below, and infinity most of them
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite, got {value}")
        if self.tx_cable_loss_db < 0 or self.rx_cable_loss_db < 0:
            raise InvalidConfigError("cable losses must be >= 0")
        if self.tx_antenna_height_m <= 0 or self.rx_antenna_height_m <= 0:
            raise InvalidConfigError("antenna heights must be positive")

    @property
    def link_offset_db(self) -> float:
        """Constant the link adds on top of -RSSI when deriving path loss."""
        return (
            self.tx_power_dbm
            - self.tx_cable_loss_db
            + self.tx_antenna_gain_dbi
            + self.rx_antenna_gain_dbi
            - self.rx_cable_loss_db
        )


#: Parameters of the indoor measurement campaign this toolkit ships presets
#: for: 14 dBm transmit power, 0.14 dB feeder loss, 0.4 dBi node antenna,
#: 3 dBi gateway antenna, lossless gateway feed, 0.8 m / 1 m antenna heights.
DEFAULT_LINK_BUDGET = LinkBudgetParams(
    tx_power_dbm=14.0,
    tx_cable_loss_db=0.14,
    tx_antenna_gain_dbi=0.4,
    rx_antenna_gain_dbi=3.0,
    rx_cable_loss_db=0.0,
    tx_antenna_height_m=0.8,
    rx_antenna_height_m=1.0,
)


@dataclass(frozen=True)
class SfThreshold:
    """Demodulation limits for one spreading factor."""

    sf: int
    snr_req_db: float
    sensitivity_dbm: float


#: Built-in 125 kHz thresholds.
SF_THRESHOLDS: dict[int, SfThreshold] = {
    7: SfThreshold(7, -7.5, -123.0),
    8: SfThreshold(8, -10.0, -126.0),
    9: SfThreshold(9, -12.5, -129.0),
    10: SfThreshold(10, -15.0, -132.0),
    11: SfThreshold(11, -17.5, -134.5),
    12: SfThreshold(12, -20.0, -137.0),
}


def _excess_over_noise_db(snr_db: float) -> float:
    """10*log10(1 + 10^(snr/10)), evaluated without overflow for large SNR."""
    if snr_db > 0:
        return snr_db + XI * math.log1p(10.0 ** (-0.1 * snr_db))
    return XI * math.log1p(10.0 ** (0.1 * snr_db))


def excess_over_noise_db_array(snr_db: np.ndarray) -> np.ndarray:
    """:func:`_excess_over_noise_db` of each SNR in an array, as
    ``max(snr, 0) + XI*log1p(10^(-|snr|/10))``, which does not overflow for
    any SNR.  It may differ from the scalar form by a few ulps."""
    return np.maximum(snr_db, 0.0) + XI * np.log1p(10.0 ** (-0.1 * np.abs(snr_db)))


def esp(rssi_dbm: float, snr_db: float) -> float:
    """Effective signal power: the signal-only share of RSSI, in dBm."""
    return rssi_dbm + snr_db - _excess_over_noise_db(snr_db)


def noise_power(rssi_dbm: float, snr_db: float) -> float:
    """Noise/interference share of RSSI, in dBm."""
    return rssi_dbm - _excess_over_noise_db(snr_db)


def experimental_path_loss(params: LinkBudgetParams, rssi_dbm: float) -> float:
    """Path loss in dB derived from a measured RSSI and the link constants."""
    return params.link_offset_db - rssi_dbm


def receivable(esp_dbm: float, snr_db: float, sf: int) -> bool:
    """Whether a packet clears both the sensitivity and the SNR threshold.

    The two conditions are conjoined deliberately: each alone is necessary
    but not sufficient for successful demodulation.
    """
    try:
        row = SF_THRESHOLDS[sf]
    except KeyError:
        raise InvalidConfigError(f"unknown spreading factor {sf}") from None
    return esp_dbm >= row.sensitivity_dbm and snr_db >= row.snr_req_db


def snr_required(sf: int) -> float:
    """Required demodulation SNR in dB for ``sf``."""
    try:
        return SF_THRESHOLDS[sf].snr_req_db
    except KeyError:
        raise InvalidConfigError(f"unknown spreading factor {sf}") from None


def load_link_budget(path: str | Path) -> LinkBudgetParams:
    """Read link-budget parameters from a JSON file keyed by field name."""
    raw = read_json(path)
    try:
        return LinkBudgetParams(**{k: float(v) for k, v in raw.items()})
    except InvalidConfigError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise InvalidConfigError(f"invalid link-budget file {path}: {exc}") from exc
