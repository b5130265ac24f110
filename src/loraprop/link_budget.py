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

from .errors import InvalidConfigError, InvalidDataError
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


#: Built-in 125 kHz thresholds; override via :func:`load_thresholds` when a
#: chipset datasheet differs.
SF_THRESHOLDS: dict[int, SfThreshold] = {
    7: SfThreshold(7, -7.5, -123.0),
    8: SfThreshold(8, -10.0, -126.0),
    9: SfThreshold(9, -12.5, -129.0),
    10: SfThreshold(10, -15.0, -132.0),
    11: SfThreshold(11, -17.5, -134.5),
    12: SfThreshold(12, -20.0, -137.0),
}


#: Readings one reception can give: an RSSI in dBm from far below any LoRa
#: receiver's sensitivity (-137 dBm at SF12) up to more than a front end
#: survives, and an SNR in dB within the signed quarter-dB byte a LoRa radio
#: reports it in.
RSSI_RANGE_DBM = (-200.0, 30.0)
SNR_RANGE_DB = (-32.0, 32.0)


def check_reception(rssi_dbm: float, snr_db: float) -> None:
    """Refuse an RSSI or SNR outside :data:`RSSI_RANGE_DBM` or :data:`SNR_RANGE_DB`."""
    for name, value, (low, high), unit in (
        ("rssi", rssi_dbm, RSSI_RANGE_DBM, "dBm"),
        ("snr", snr_db, SNR_RANGE_DB, "dB"),
    ):
        if not low <= value <= high:
            raise InvalidDataError(f"{name} {value!r} {unit} is outside the physical range [{low}, {high}] {unit}")


def _excess_over_noise_db(snr_db: float) -> float:
    """10*log10(1 + 10^(snr/10)), evaluated without overflow for large SNR."""
    if snr_db > 0:
        return snr_db + XI * math.log1p(10.0 ** (-0.1 * snr_db))
    return XI * math.log1p(10.0 ** (0.1 * snr_db))


def esp(rssi_dbm: float, snr_db: float) -> float:
    """Effective signal power: the signal-only share of RSSI, in dBm."""
    return rssi_dbm + snr_db - _excess_over_noise_db(snr_db)


def noise_power(rssi_dbm: float, snr_db: float) -> float:
    """Noise/interference share of RSSI, in dBm."""
    return rssi_dbm - _excess_over_noise_db(snr_db)


def experimental_path_loss(params: LinkBudgetParams, rssi_dbm: float) -> float:
    """Path loss in dB derived from a measured RSSI and the link constants."""
    return params.link_offset_db - rssi_dbm


def receivable(
    esp_dbm: float,
    snr_db: float,
    sf: int,
    thresholds: dict[int, SfThreshold] | None = None,
) -> bool:
    """Whether a packet clears both the sensitivity and the SNR threshold.

    The two conditions are conjoined deliberately: each alone is necessary
    but not sufficient for successful demodulation.
    """
    table = SF_THRESHOLDS if thresholds is None else thresholds
    try:
        row = table[sf]
    except KeyError:
        raise InvalidConfigError(f"unknown spreading factor {sf}") from None
    return esp_dbm >= row.sensitivity_dbm and snr_db >= row.snr_req_db


def snr_required(sf: int, thresholds: dict[int, SfThreshold] | None = None) -> float:
    """Required demodulation SNR in dB for ``sf``."""
    table = SF_THRESHOLDS if thresholds is None else thresholds
    try:
        return table[sf].snr_req_db
    except KeyError:
        raise InvalidConfigError(f"unknown spreading factor {sf}") from None


def load_thresholds(path: str | Path) -> dict[int, SfThreshold]:
    """Read an SF threshold table from a JSON file.

    Expected shape: ``{"7": {"snr_req_db": -7.5, "sensitivity_dbm": -123}, ...}``.
    """
    raw = read_json(path)
    table: dict[int, SfThreshold] = {}
    try:
        for key, row in raw.items():
            sf = int(key)
            table[sf] = SfThreshold(
                sf=sf,
                snr_req_db=float(row["snr_req_db"]),
                sensitivity_dbm=float(row["sensitivity_dbm"]),
            )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidConfigError(f"invalid threshold file {path}: {exc}") from exc
    return table


def load_link_budget(path: str | Path) -> LinkBudgetParams:
    """Read link-budget parameters from a JSON file keyed by field name."""
    raw = read_json(path)
    try:
        return LinkBudgetParams(**{k: float(v) for k, v in raw.items()})
    except InvalidConfigError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise InvalidConfigError(f"invalid link-budget file {path}: {exc}") from exc
