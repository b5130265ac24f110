"""Ingest against the row-by-row code it replaced.

The reference below is the per-cell ``parse_row`` and the ingest loop that
appended each parsed row to its column buffers and converted the list of
``datetime``s with numpy, kept verbatim.  The current ``parse_row`` takes a
fast path for rows that convert and check whole, and ingest moves parsed
rows into typed buffers a block at a time with times as integer
microseconds.  On any input both must give the same ``rows_read``, the same
rejections with the same reasons in the same order, and columns of the same
dtype and the same bytes.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import random
from array import array
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loraprop import pipeline
from loraprop.errors import InvalidDataError, LorapropError
from loraprop.pipeline import IngestResult, Rejection, ingest
from loraprop.records import (
    COLUMN_DTYPES,
    CSV_COLUMNS,
    MAX_DEVICE_ID_CHARS,
    ObservationTable,
    parse_row,
)

log = logging.getLogger(__name__)

_INT_COLUMNS = frozenset({"SF", "f_count", "p_count", "c_walls", "w_walls"})
_SF, _FREQUENCY, _DISTANCE, _C_WALLS, _W_WALLS = map(
    CSV_COLUMNS.index, ("SF", "frequency", "distance", "c_walls", "w_walls")
)


# ---------------------------------------------------------------------------
# Reference: the per-row code, verbatim


def _parse_time(text: str) -> datetime:
    try:
        value = datetime.fromisoformat(text)
    except ValueError:
        try:
            value = datetime.strptime(text, "%Y-%m-%d %H:%M:%S")
        except ValueError:
            raise InvalidDataError(f"bad-time: {text!r}") from None
    if value.tzinfo is not None:
        # the schema is naive local time; an offset cannot be placed on it
        raise InvalidDataError(f"bad-time: timezone offset in {text!r}")
    return value


def reference_parse_row(values: list[str]) -> tuple:
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
    if typed[_C_WALLS] < 0:
        raise InvalidDataError(f"bad-c_walls: {typed[_C_WALLS]} is negative")
    if typed[_W_WALLS] < 0:
        raise InvalidDataError(f"bad-w_walls: {typed[_W_WALLS]} is negative")
    if typed[_FREQUENCY] <= 0:
        raise InvalidDataError(f"bad-frequency: {typed[_FREQUENCY]} is not positive")
    return tuple(typed)


def reference_ingest(text: str) -> IngestResult:
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    assert tuple(header) == CSV_COLUMNS
    # one buffer per column, typed arrays for the numeric ones, which the
    # table then takes without a copy: no row outlives its parse as objects
    buffers = [[] if d.kind in "MU" else array(d.char) for d in COLUMN_DTYPES.values()]
    appends = [buffer.append for buffer in buffers]
    rejections: list[Rejection] = []
    rows = 0
    for line, row in enumerate(reader, start=1):
        if not row:
            continue
        rows += 1
        try:
            values = reference_parse_row(row)
        except LorapropError as exc:
            reason = str(exc).split(":", 1)[0]
            rejections.append(Rejection(line=line, reason=reason))
            log.debug("rejected row %d: %s", line, exc)
            continue
        for append, value in zip(appends, values):
            append(value)
    records = ObservationTable(dict(zip(CSV_COLUMNS, buffers)))
    return IngestResult(records=records, rejections=rejections, rows_read=rows)


# ---------------------------------------------------------------------------
# Inputs

VALID = {
    "time": ["2024-01-01 00:00:00", "2024-03-05T12:34:56.789", "2024-01-01 00:00:00.25",
             "2024-1-1 0:00:00", "20240101T000036", "2024-W01-1", "2023-12-31 23:59:59"],
    "device_id": ["dev0", "dev1", " dev2 ", "d" * MAX_DEVICE_ID_CHARS, "ünï"],
    "SF": ["7", "8", "9", "10", "11", "12", "12.0"],
    "frequency": ["868.1", "867.3", "1e-3"],
    "f_count": ["0", "1", "65535", "70000", "-3"],
    "p_count": ["0", "7", "65535"],
    "distance": ["10.0", "0.5", "37", "1e2"],
    "c_walls": ["0", "1", "2"],
    "w_walls": ["0", "3", "5"],
}
FLOATS = ["550.0", "38.0", "-75.0", "8.0", "0.046336", "-83.0", "92.26", "0", "1e3", "-0.0"]

#: Cells any column may be replaced with.
ODD_CELLS = [
    "", " ", "　", "\x1c", "\t",
    "1_0", "١٢", "nan", "-inf", "inf", "9.0", "1e3", "-0.0", "7.5", "1.5", "abc",
    str(2**63), str(-(2**63)), str(2**63 - 1), "1e308", "-1e308", "6", "13", "0", "-1",
    "T", "20240101T000036", "2024-W01-1", ".5", " 2024-01-01 00:00:00 ",
    "　2024-01-01 00:00:00", "2024-01-01 00:00:00\x1c", "2024-13-01 00:00:00",
    "2024-01-01 00:00:00+02:00", "2024-01-01T00:00:00Z", "2024-01-01 00:00:00,5",
    "d" * MAX_DEVICE_ID_CHARS, "d" * (MAX_DEVICE_ID_CHARS + 1), "dev\0", "d\0ev", "\0",
]
#: Values at the edges of each column's checks.
EDGES = {
    "time": ["2024-01-01 00:00:00+00:00", "2024-01-01T00:00:00-05:30", "2024-01-01 00:00:00Z",
             " 2024-01-01 00:00:00", "2024-1-1 0:00:00", "2024-01-01 24:00:00",
             "0001-01-01 00:00:00", "9999-12-31 23:59:59.999999"],
    "device_id": ["d" * MAX_DEVICE_ID_CHARS, "d" * (MAX_DEVICE_ID_CHARS + 1),
                  " " + "d" * MAX_DEVICE_ID_CHARS + " ", "dev\0", "\0dev", "　", "dev 1"],
    "SF": ["7.5", "8.25", "11.9", "9.000001", "6", "13", "6.999999", "12.000001", "1.2e1"],
    "frequency": ["0", "-0.0", "-868.1", "5e-324", "1e308"],
    "distance": ["0", "-0.0", "-1", "5e-324", "1e308"],
    "f_count": [str(2**63), str(-(2**63)), str(-(2**63) - 2**11), str(2**63 - 1),
                "9.2233720368547748e18", "-9.3e18", "1.5", "-1"],
    "p_count": [str(2**63), str(-(2**63)), "9.2233720368547748e18", "0.5"],
    "c_walls": ["-1", "-0.0", "0.5", "-1e-300", str(2**63), "9.2233720368547748e18"],
    "w_walls": ["-1", "-0.0", "0.5", "-1e-300", str(2**63), "9.2233720368547748e18"],
}
FLOAT_EDGES = ["1e308", "-1e308", "5e-324", "nan", "inf", "1_000.5"]
#: Ways a cell's own text can be padded.
PADDINGS = [(" ", ""), ("", " "), ("　", "　"), ("\x1c", ""), ("", "\x1c"), ("\t", "\n")]


def valid_cell(column: str, pick) -> str:
    return pick(VALID.get(column, FLOATS))


def random_row(pick, faults: list[tuple[int, int, int]]) -> list[str] | None:
    """One row: ``None`` for a blank line, else 20 cells (or a wrong count)
    built from valid values with ``faults`` applied as
    ``(kind, column, choice)``: an odd cell (0), padding (1), a dropped (2)
    or repeated (3) cell, a blank line (4) or a value at the edge of the
    column's checks (5)."""
    cells = [valid_cell(column, pick) for column in CSV_COLUMNS]
    for kind, column, choice in faults:
        column %= len(cells)
        if kind == 0:
            cells[column] = ODD_CELLS[choice % len(ODD_CELLS)]
        elif kind == 5:
            edges = EDGES.get(CSV_COLUMNS[column % len(CSV_COLUMNS)], FLOAT_EDGES)
            cells[column] = edges[choice % len(edges)]
        elif kind == 1:
            head, tail = PADDINGS[choice % len(PADDINGS)]
            cells[column] = head + cells[column] + tail
        elif kind == 2:
            del cells[column]
        elif kind == 3:
            cells.insert(column, cells[column])
        elif kind == 4:
            return None
    return cells


def csv_text(rows: list[list[str] | None]) -> str:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        if row is None:
            out.write("\n")
        else:
            writer.writerow(row)
    return out.getvalue()


def assert_same_ingest(text: str) -> None:
    expected = reference_ingest(text)
    result = ingest(io.StringIO(text, newline=""))
    assert result.rows_read == expected.rows_read
    assert [(r.line, r.reason) for r in result.rejections] == [
        (r.line, r.reason) for r in expected.rejections
    ]
    for name in CSV_COLUMNS:
        got, want = result.records[name], expected.records[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_parse(cells: list[str]) -> None:
    try:
        expected = reference_parse_row(cells)
    except InvalidDataError as exc:
        with pytest.raises(InvalidDataError) as caught:
            parse_row(cells)
        assert str(caught.value) == str(exc)
        return
    result = parse_row(cells)
    assert result == expected
    assert [type(v) for v in result] == [type(v) for v in expected]


_faults = st.lists(
    st.tuples(
        st.sampled_from([5] * 8 + [0] * 4 + [1] * 2 + [2, 3, 4]),
        st.integers(0, len(CSV_COLUMNS) - 1),
        st.integers(0, len(ODD_CELLS) * len(PADDINGS)),
    ),
    max_size=3,
)
_rows = st.lists(
    # the valid cells come from a seeded generator, the faults from hypothesis
    st.tuples(st.integers(0, 2**32), _faults).map(
        lambda drawn: random_row(random.Random(drawn[0]).choice, drawn[1])
    ),
    min_size=8,
    max_size=40,
)


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=150, deadline=None)
@given(rows=_rows, block=st.sampled_from([1, 2, 3, 7, pipeline._INGEST_BLOCK]))
def test_ingest_matches_the_per_row_reference(rows, block):
    for cells in rows:
        if cells is not None:
            assert_same_parse(cells)
    with mock.patch.object(pipeline, "_INGEST_BLOCK", block):
        assert_same_ingest(csv_text(rows))


def test_files_longer_than_one_block():
    rng = random.Random(5)
    rows = []
    for _ in range(2 * pipeline._INGEST_BLOCK + 777):
        faults = [] if rng.random() < 0.9 else [
            (rng.randrange(6), rng.randrange(len(CSV_COLUMNS)), rng.randrange(1000))
        ]
        rows.append(random_row(rng.choice, faults))
    assert_same_ingest(csv_text(rows))


@pytest.mark.parametrize(
    "cell, column",
    [
        ("2024-01-01 00:00:00+02:00", "time"),
        ("2024-01-01T00:00:00Z", "time"),
        ("7.5", "SF"),
        ("2.5", "c_walls"),
        ("-1", "c_walls"),
        ("-1", "w_walls"),
        (str(2**63), "f_count"),
        ("1e308", "co2"),
        ("\x1c5", "rssi"),
        (" 2024-01-01 00:00:00", "time"),
        ("2024-1-1 0:00:00", "time"),
        ("d" * (MAX_DEVICE_ID_CHARS + 1), "device_id"),
        ("0", "frequency"),
    ],
)
def test_cells_the_fast_path_must_refuse(cell, column):
    cells = [valid_cell(name, lambda options: options[0]) for name in CSV_COLUMNS]
    cells[CSV_COLUMNS.index(column)] = cell
    assert_same_parse(cells)


def test_finite_values_whose_sum_overflows_are_accepted():
    cells = [valid_cell(name, lambda options: options[0]) for name in CSV_COLUMNS]
    cells[CSV_COLUMNS.index("co2")] = cells[CSV_COLUMNS.index("humidity")] = "1e308"
    assert_same_parse(cells)
    assert parse_row(cells)[2:4] == (1e308, 1e308)
