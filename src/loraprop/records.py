"""The observation table shared by the pipeline, the fitter and the metrics.

One row is one received uplink: timestamp, device, environmental
covariates, signal metrics, radio parameters, frame counters and the
gateway-relative geometry, plus the derived link-budget columns.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from datetime import datetime
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidDataError

#: Exact CSV header, in column order.
CSV_COLUMNS = (
    "time",
    "device_id",
    "co2",
    "humidity",
    "pm25",
    "pressure",
    "temperature",
    "rssi",
    "snr",
    "SF",
    "frequency",
    "f_count",
    "p_count",
    "toa",
    "distance",
    "c_walls",
    "w_walls",
    "exp_pl",
    "n_power",
    "esp",
)

#: The seven sensor/signal features anomaly screening runs on, in the fixed
#: order configuration files refer to.
FEATURE_FIELDS = ("co2", "humidity", "pm25", "pressure", "temperature", "rssi", "snr")

_INT_COLUMNS = frozenset({"SF", "f_count", "p_count", "c_walls", "w_walls"})

#: numpy dtype of each column of an :class:`ObservationTable`, in CSV order.
COLUMN_DTYPES = (
    dict.fromkeys(CSV_COLUMNS, np.dtype(np.float64))
    | dict.fromkeys(_INT_COLUMNS, np.dtype(np.int64))
    | {"time": np.dtype("datetime64[us]"), "device_id": np.dtype(np.str_)}
)

#: Longest ``device_id`` :func:`parse_row` accepts.
MAX_DEVICE_ID_CHARS = 64
#: What a byte that is not UTF-8 decodes to under ``errors="surrogateescape"``;
#: no text holds a lone surrogate.
_SURROGATE = re.compile("[\ud800-\udfff]")
#: A date in a form ``datetime.fromisoformat`` or ``yyyy-m-d`` reads, then the
#: end of the cell or one of the two date/time separators the schema allows.
_DATE_THEN_SEPARATOR = re.compile(r"\d{4}(?:-\d\d?-\d\d?|\d{4}|-?W\d\d(?:-?\d)?)(?:\Z|[T ])")

_MAX = sys.float_info.max
#: The closed interval of each column whose values a quantity's definition or
#: the radio bounds, in check order; units m, MHz (the SX127x band), ppm, %,
#: ug/m3, hPa, degC, dBm and dB.  Temperature and pressure need only be
#: finite; their intervals say so of a value given outside a CSV row too.
COLUMN_RANGES = {
    "SF": (7, 12),
    "distance": (math.ulp(0.0), _MAX),
    "c_walls": (0, _MAX),
    "w_walls": (0, _MAX),
    "frequency": (137.0, 1020.0),
    "co2": (0.0, 1e6),
    "humidity": (0.0, 100.0),
    "pm25": (0.0, _MAX),
    "pressure": (-_MAX, _MAX),
    "temperature": (-_MAX, _MAX),
    "rssi": (-200.0, 30.0),
    "snr": (-32.0, 32.0),
}
_RANGED = [(CSV_COLUMNS.index(name), name) for name in COLUMN_RANGES]


def check_range(column: str, value: float) -> float:
    """``value`` if it lies in its column's :data:`COLUMN_RANGES` interval;
    otherwise, NaN included, an :class:`InvalidDataError` tagged ``bad-<column>``."""
    low, high = COLUMN_RANGES[column]
    if not low <= value <= high:
        raise InvalidDataError(f"bad-{column}: {value} outside [{low}, {high}]")
    return value


def check_setting(name: str, value, low, high, brackets: str = "[]") -> None:
    """Refuse a config setting's ``value`` unless it is a number within
    ``low`` and ``high``, each end closed or open as ``brackets`` says
    (``"[]"``, ``"(]"``, ...), and an integer when ``low`` is one: a bool,
    a string, NaN, the infinities and a number beyond the float range are
    refused too, each with the :class:`InvalidConfigError`
    ``<name> must be in <interval>, got <value>``."""
    integer = isinstance(low, numbers.Integral)
    valid = (
        isinstance(value, numbers.Integral if integer else numbers.Real)
        and not isinstance(value, bool)
        and (integer or abs(value) <= _MAX)
        and (low <= value if brackets[0] == "[" else low < value)
        and (value <= high if brackets[1] == "]" else value < high)
    )
    if not valid:
        shown = value if isinstance(value, numbers.Number) else repr(value)
        raise InvalidConfigError(f"{name} must be in {brackets[0]}{low}, {high}{brackets[1]}, got {shown}")


class ObservationTable:
    """Observations as one numpy array per CSV column, keyed by column name.

    Float columns are float64; ``SF``, the frame counters and the wall
    counts int64; ``time`` is ``datetime64[us]`` (naive local wall-clock
    values: the source data declares a single fixed timezone) and
    ``device_id`` a numpy ``str`` array; the constructor coerces each
    array-like it is given to its :data:`COLUMN_DTYPES` entry.  Stages do
    not modify a table: they select rows into a new one with :meth:`take`.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, Any]) -> None:
        if set(columns) != set(CSV_COLUMNS):
            raise InvalidDataError(
                f"table columns must be {list(CSV_COLUMNS)}, got {list(columns)}"
            )
        self._columns = {
            name: np.asarray(columns[name], dtype=COLUMN_DTYPES[name]) for name in CSV_COLUMNS
        }
        if len({c.shape for c in self._columns.values()}) != 1 or self._columns["time"].ndim != 1:
            raise InvalidDataError("table columns must be one-dimensional and of equal length")

    def __len__(self) -> int:
        return self._columns["time"].size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def take(self, index) -> ObservationTable:
        """The rows selected by an index array or a boolean mask, in that order."""
        return ObservationTable({name: c[index] for name, c in self._columns.items()})


def _parse_time(text: str) -> datetime:
    try:
        value = datetime.fromisoformat(text)
    except ValueError:
        try:
            value = datetime.strptime(text, "%Y-%m-%d %H:%M:%S")
        except ValueError:
            raise InvalidDataError(f"bad-time: {text!r}") from None
    if not _DATE_THEN_SEPARATOR.match(text):
        # ``fromisoformat`` takes any character between date and time
        raise InvalidDataError(f"bad-time: date and time separated by neither 'T' nor a space in {text!r}")
    if value.tzinfo is not None:
        # the schema is naive local time; an offset cannot be placed on it
        raise InvalidDataError(f"bad-time: timezone offset in {text!r}")
    return value


def parse_row(values: list[str]) -> tuple:
    """Typed values of one CSV row (strings in :data:`CSV_COLUMNS` order),
    in the same order: ``datetime``, ``str``, ``int`` or ``float``.

    Raises :class:`InvalidDataError` with a machine-readable reason as the
    first message token: ``bad-encoding`` (a cell holds a lone surrogate: a
    byte that was not UTF-8), ``wrong-field-count``, ``missing-value``,
    ``bad-<column>`` (a ``device_id`` also when it is longer than
    :data:`MAX_DEVICE_ID_CHARS` or holds a NUL, a CR or an LF; a value
    outside its :data:`COLUMN_RANGES` interval too, checked after every
    cell in the table's order) or ``non-finite``.
    """
    if any(not value.isascii() and _SURROGATE.search(value) for value in values):
        raise InvalidDataError("bad-encoding: a byte that is not UTF-8")
    if len(values) != len(CSV_COLUMNS):
        raise InvalidDataError(
            f"wrong-field-count: expected {len(CSV_COLUMNS)}, got {len(values)}"
        )
    typed: list = []
    for column, raw in zip(CSV_COLUMNS, values):
        text = raw.strip()
        if text == "":
            raise InvalidDataError(f"missing-value: empty {column}")
        if column == "time":
            typed.append(_parse_time(text))
        elif column == "device_id":
            # a str column is as wide as its longest id, and numpy drops
            # trailing NULs, which would make "dev\0" the device "dev"
            if len(text) > MAX_DEVICE_ID_CHARS or "\0" in text:
                raise InvalidDataError(f"bad-device_id: over {MAX_DEVICE_ID_CHARS} chars or a NUL")
            if "\r" in text or "\n" in text:  # a CSV line would break in two
                raise InvalidDataError("bad-device_id: holds a CR or an LF")
            typed.append(text)
        else:
            try:
                value = float(text)
            except ValueError:
                raise InvalidDataError(f"bad-{column}: {text!r}") from None
            if not math.isfinite(value):
                raise InvalidDataError(f"non-finite: {column}={text!r}")
            if column in _INT_COLUMNS:
                if value != int(value):
                    raise InvalidDataError(f"bad-{column}: non-integer {text!r}")
                if not -(2**63) <= value < 2**63:
                    raise InvalidDataError(f"bad-{column}: out of the int64 range {text!r}")
                typed.append(int(value))
            else:
                typed.append(value)
    for k, column in _RANGED:
        check_range(column, typed[k])
    return tuple(typed)


def format_row(values: Sequence) -> list[str]:
    """Serialise one row's typed values (as :func:`parse_row` returns them)
    back to CSV cell strings, canonically.

    The time keeps sub-second precision only when the row carries it; ints
    are their digits and floats their ``repr`` (``str`` of a float is its
    shortest round-trip form), so re-serialising an unchanged row is
    byte-stable.
    """
    return [values[0].isoformat(sep=" "), values[1], *map(str, values[2:])]
