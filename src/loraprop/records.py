"""The observation table shared by the pipeline, the fitter and the metrics.

One row is one received uplink: timestamp, device, environmental
covariates, signal metrics, radio parameters, frame counters and the
gateway-relative geometry, plus the derived link-budget columns.
"""

from __future__ import annotations

import math
import re
from datetime import datetime
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidDataError

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
#: Rows :meth:`ObservationTable.rows` converts to Python values at a time.
_ROW_BLOCK = 4096

_SF, _FREQUENCY, _DISTANCE, _C_WALLS, _W_WALLS = map(
    CSV_COLUMNS.index, ("SF", "frequency", "distance", "c_walls", "w_walls")
)


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

    def rows(self, columns: Sequence[str] = CSV_COLUMNS) -> Iterator[tuple]:
        """Rows as tuples of Python values (``datetime``, ``str``, ``int``,
        ``float``) of ``columns``, converted a block of rows at a time so a
        large table is never held as Python objects all at once."""
        arrays = [self._columns[name] for name in columns]
        for start in range(0, len(self), _ROW_BLOCK):
            yield from zip(*(a[start : start + _ROW_BLOCK].tolist() for a in arrays))


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
    :data:`MAX_DEVICE_ID_CHARS` or holds a NUL; an SF outside 7..12, a distance or
    frequency <= 0 and a negative wall count too) or ``non-finite``.
    """
    # fast path: a row that converts whole and passes every check at once;
    # any other row takes the per-cell checks, the one source of reasons
    try:
        when = datetime.fromisoformat(values[0])
        (co2, humidity, pm25, pressure, temperature, rssi, snr, sf, frequency, f_count, p_count,
         toa, distance, c_walls, w_walls, exp_pl, n_power, esp) = numbers = [*map(float, values[2:])]
    except (ValueError, IndexError):
        return _parse_row_checked(values)
    device = values[1].strip()
    if (
        # a lone surrogate is a byte that was not UTF-8, in the time cell too;
        # a time whose date is not ``yyyy-mm-dd`` before a 'T' or a space is checked per cell
        values[0].isascii() and values[0][10:11] in ("T", " ")
        and (device.isascii() or not _SURROGATE.search(device))
        and when.tzinfo is None and 0 < len(device) <= MAX_DEVICE_ID_CHARS and "\0" not in device
        and math.isfinite(sum(numbers)) and sf.is_integer() and 7 <= sf <= 12
        and f_count.is_integer() and -(2**63) <= f_count < 2**63
        and p_count.is_integer() and -(2**63) <= p_count < 2**63
        and c_walls.is_integer() and 0 <= c_walls < 2**63
        and w_walls.is_integer() and 0 <= w_walls < 2**63 and distance > 0 and frequency > 0
    ):
        return (when, device, co2, humidity, pm25, pressure, temperature, rssi, snr, int(sf),
                frequency, int(f_count), int(p_count), toa, distance, int(c_walls),
                int(w_walls), exp_pl, n_power, esp)
    return _parse_row_checked(values)


def _parse_row_checked(values: list[str]) -> tuple:
    """:func:`parse_row` one cell at a time, raising on the first fault."""
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
    if not 7 <= typed[_SF] <= 12:
        raise InvalidDataError(f"bad-SF: {typed[_SF]} outside 7..12")
    if typed[_DISTANCE] <= 0:
        raise InvalidDataError(f"bad-distance: {typed[_DISTANCE]} is not positive")
    for walls in (_C_WALLS, _W_WALLS):
        if typed[walls] < 0:
            raise InvalidDataError(f"bad-{CSV_COLUMNS[walls]}: {typed[walls]} is negative")
    if typed[_FREQUENCY] <= 0:
        raise InvalidDataError(f"bad-frequency: {typed[_FREQUENCY]} is not positive")
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
