"""Ingest against the row-by-row code it replaced.

Two references are kept verbatim below.  The per-cell ``parse_row`` and
the ingest loop that appended each parsed row to its column buffers pin the
values of a row.  The record-by-record reader, a ``csv`` reader with
``parse_row`` on each record, pins rejections, line numbers and log
records.  Ingest now parses a block of lines at a time with ``np.loadtxt``
and checks whole columns, leaving every other line to ``csv`` and
``parse_row``.  On any input it must give the same ``rows_read``, the same
rejections with the same reasons in the same order, columns of the same
dtype and the same bytes, and the same log records, on one CPU or two.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import multiprocessing
import os
import random
import warnings
from array import array
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loraprop import pipeline
from loraprop.errors import InvalidDataError, LorapropError
from loraprop.pipeline import IngestResult, Rejection, ingest
from loraprop import records
from loraprop.records import (
    COLUMN_DTYPES,
    CSV_COLUMNS,
    MAX_DEVICE_ID_CHARS,
    ObservationTable,
    parse_row,
)

from helpers import use_cpus

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


def reference_read(text: str) -> tuple:
    """The record-by-record reader of ``text``: what :func:`outcome` gives
    for it."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        names = next(reader)
    except StopIteration:
        return (InvalidDataError, "malformed header: empty input"), []
    except csv.Error as exc:
        return (InvalidDataError, f"malformed header: {exc}"), []
    if tuple(names) != CSV_COLUMNS:
        return (InvalidDataError, f"malformed header: expected {list(CSV_COLUMNS)}, got {names}"), []
    parsed, rejections, logged = [], [], []
    rows = line = 0
    while True:
        line += 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            rows += 1
            rejections.append((line, "oversized-field" if "field limit" in str(exc) else "bad-csv"))
            logged.append(("DEBUG", f"rejected row {line}: {exc}"))
            continue
        if not row:
            continue
        rows += 1
        try:
            parsed.append(records.parse_row(row))
        except LorapropError as exc:
            rejections.append((line, str(exc).split(":", 1)[0]))
            logged.append(("DEBUG", f"rejected row {line}: {exc}"))
    columns = [np.array(column, dtype) for column, dtype in
               zip(zip(*parsed), COLUMN_DTYPES.values())] if parsed else [[]] * len(CSV_COLUMNS)
    table = ObservationTable(dict(zip(CSV_COLUMNS, columns)))
    share = 100.0 * len(rejections) / rows if rows else 0.0
    logged.append(("INFO", f"ingested {len(table)} rows, rejected {len(rejections)} ({share:.4f}%)"))
    got = (rows, rejections, {name: (column.dtype.str, column.tobytes()) for name, column in table._columns.items()})
    return got, logged


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
    "1_0", "١٢", "nan", "-inf", "inf", "9.0", "1e3", "-0.0", "7.5", "1.5", "abc", "1.2.3", "-", "1e",
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


def one_row_file(cells: list[str], at: int, rows: int = 40) -> str:
    """A file of valid rows with ``cells`` as data row ``at``."""
    file_rows = plain_rows(rows)
    file_rows[at - 1] = cells
    return csv_text(file_rows)


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
        ("1_0", "co2"),
        ("1_0", "SF"),
        ("١٢", "SF"),
        (" 1.5 ", "pm25"),
        ("+5", "snr"),
        (".5", "toa"),
        ("nan", "temperature"),
        ("1.2.3", "pressure"),
        ("e5", "humidity"),
        ("0000-01-01 00:00:00", "time"),
        ("2024-01-01 00:00:00.000000", "time"),
        ("2024-03-05T12:34:56.123456", "time"),
        ("2024-02-29 23:59:59", "time"),
        ("2023-02-29 00:00:00", "time"),
        ("2024-01-01 00:00:60", "time"),
        ("2024-01-01 00:00:00.1234567", "time"),
        ("2024-01-01 00:00:00.123456+01:00", "time"),
        ("-9.3e18", "f_count"),
        (" dev ", "device_id"),
        ("dev ", "device_id"),
        ("\x1fdev", "device_id"),
    ],
)
@pytest.mark.parametrize("at", [1, 2, 40])
def test_cells_at_the_edge_of_the_block_reader(cell, column, at):
    # each cell, as the first row of a block, a later one or the last, gives
    # what the per-cell reference gives
    cells = [valid_cell(name, lambda options: options[0]) for name in CSV_COLUMNS]
    cells[CSV_COLUMNS.index(column)] = cell
    assert_same_parse(cells)
    assert_same_ingest(one_row_file(cells, at))


def test_finite_values_whose_sum_overflows_are_accepted():
    cells = [valid_cell(name, lambda options: options[0]) for name in CSV_COLUMNS]
    cells[CSV_COLUMNS.index("co2")] = cells[CSV_COLUMNS.index("humidity")] = "1e308"
    assert_same_parse(cells)
    assert parse_row(cells)[2:4] == (1e308, 1e308)
    assert ingest(io.StringIO(one_row_file(cells, 3), newline="")).records["co2"][2] == 1e308


def test_each_block_s_first_row_is_checked_against_parse_row(monkeypatch):
    calls = []

    def spy(cells):
        calls.append(cells)
        return parse_row(cells)

    monkeypatch.setattr(pipeline, "parse_row", spy)
    monkeypatch.setattr(pipeline, "_INGEST_BLOCK", 3)
    rows = plain_rows(10)
    ingest(io.StringIO(csv_text(rows), newline=""))
    assert calls == [rows[0], rows[3], rows[6], rows[9]]

    monkeypatch.setattr(pipeline, "parse_row", lambda cells: parse_row(cells)[:-1] + (0.0,))
    with pytest.raises(RuntimeError, match="^ingest read line 1 as"):
        ingest(io.StringIO(csv_text(rows), newline=""))


# ---------------------------------------------------------------------------
# Files


class _Collect(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def outcome(read) -> tuple:
    """What ``read()`` gives as comparable values: ``rows_read``, the
    rejections and the columns (dtype and bytes), or the error it raises;
    and the DEBUG and INFO records it logs."""
    logger = logging.getLogger("loraprop.pipeline")
    handler, level = _Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns of a block it was given no line of
            result = read()
        got = (
            result.rows_read,
            [(r.line, r.reason) for r in result.rejections],
            {name: (column.dtype.str, column.tobytes()) for name, column in result.records._columns.items()},
        )
    except Exception as exc:
        got = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert multiprocessing.active_children() == []
    return got, [(r.levelname, r.getMessage()) for r in handler.records]


def assert_file_matches_the_reference(path, block: int = pipeline._INGEST_BLOCK) -> tuple:
    """``ingest(path)`` on one and on two CPUs, in blocks of ``block``
    lines, gives what the record-by-record reader gives; returns that."""
    expected = reference_read(path.read_bytes().decode("utf-8-sig", "surrogateescape"))
    for cpus in (1, 2):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
                mock.patch.object(pipeline, "_INGEST_BLOCK", block):
            assert outcome(lambda: ingest(path)) == expected, cpus
    return expected


def valid_rows(n: int, seed: int = 0) -> list[list[str]]:
    return [random_row(random.Random(seed + i).choice, []) for i in range(n)]


def plain_rows(n: int) -> list[list[str]]:
    """Valid rows the block reader takes itself: the first value of each
    column, with the frame counter counting up."""
    rows = [[valid_cell(name, lambda options: options[0]) for name in CSV_COLUMNS] for _ in range(n)]
    for k, row in enumerate(rows):
        row[CSV_COLUMNS.index("f_count")] = str(k)
    return rows


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("files") / "input.csv"


#: Bytes a hypothesis file may have inserted anywhere.
STRAY_BYTES = [b'"', b"\n", b"\r", b"\r\n", b",", b"\xff", b"\xe2\x82", b"\x00", b"\xef\xbb\xbf"]


@settings(max_examples=100, deadline=None)
@given(
    rows=_rows,
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    bom=st.booleans(),
    strays=st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(STRAY_BYTES)), max_size=3),
    block=st.sampled_from([1, 2, 3, 7, pipeline._INGEST_BLOCK]),
)
def test_files_match_the_record_by_record_reader(rows, newline, bom, strays, block, scratch_csv):
    data = csv_text(rows).replace("\n", newline).encode("utf-8")
    for position, piece in strays:
        at = position % (len(data) + 1)
        data = data[:at] + piece + data[at:]
    scratch_csv.write_bytes(b"\xef\xbb\xbf" * bom + data)
    assert_file_matches_the_reference(scratch_csv, block)


@settings(max_examples=40, deadline=None)
@given(
    faults=st.lists(
        st.tuples(st.integers(0, 299), st.sampled_from(range(len(ODD_CELLS))), st.integers(0, len(CSV_COLUMNS) - 1)),
        max_size=12,
    ),
    block=st.sampled_from([16, 50, 64, 128]),
)
def test_faults_in_random_blocks_match_the_record_by_record_reader(faults, block, scratch_csv):
    rows = plain_rows(300)
    for row, cell, column in faults:
        rows[row][column] = ODD_CELLS[cell]
    scratch_csv.write_text(csv_text(rows), encoding="utf-8")
    assert_file_matches_the_reference(scratch_csv, block)


def test_bom_crlf_and_blank_lines(tmp_path):
    rows = valid_rows(30)
    for i in (5, 14, 26):  # rejections on either side of every boundary
        rows[i][CSV_COLUMNS.index("rssi")] = "abc"
    rows[3:3] = rows[10:10] = rows[20:20] = [None, None]
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"\xef\xbb\xbf" + csv_text(rows).replace("\n", "\r\n").encode("utf-8"))
    got, logged = assert_file_matches_the_reference(path, block=8)
    assert got[:2] == (30, [(8, "bad-rssi"), (19, "bad-rssi"), (33, "bad-rssi")])
    assert [message.split(":")[0] for level, message in logged if level == "DEBUG"] == [
        "rejected row 8", "rejected row 19", "rejected row 33"
    ]


def test_byte_order_mark_is_skipped_at_the_start_of_the_file_only(tmp_path):
    # every line after the header begins with one; it rejects that row
    lines = csv_text(valid_rows(30)).splitlines(keepends=True)
    path = tmp_path / "marks.csv"
    path.write_bytes("\ufeff".join(lines).encode("utf-8"))
    assert_file_matches_the_reference(path, block=7)
    assert len(ingest(path).records) == 0


def test_malformed_header(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text('"time' + "\n" * 2000 + '"' + csv_text(valid_rows(10))[4:], encoding="utf-8")
    assert_file_matches_the_reference(path)
    with pytest.raises(InvalidDataError, match="^malformed header.*'time\\\\n"):
        ingest(path)


def test_cr_only_file(tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(csv_text(valid_rows(30)).replace("\n", "\r").encode("utf-8"))
    got, _ = assert_file_matches_the_reference(path, block=7)
    assert got[:2] == (30, [])


@pytest.mark.parametrize("column", ["device_id", "co2"])
def test_oversized_field(tmp_path, column):
    # a number of 200,000 zeros is 0.0 to numpy, and a field over the limit to csv
    big = plain_rows(1)[0]
    big[CSV_COLUMNS.index(column)] = ("d" if column == "device_id" else "0") * (csv.field_size_limit() + 10)
    path = tmp_path / "oversized.csv"
    path.write_text(csv_text(valid_rows(3) + [big] + valid_rows(5, seed=3)), encoding="utf-8")
    got, _ = assert_file_matches_the_reference(path, block=2)
    assert got[:2] == (9, [(4, "oversized-field")])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_valid_lines_are_parsed_a_block_at_a_time(tmp_path, monkeypatch, newline):
    # parse_row sees only the first row of each block, blank lines and line
    # ends of every kind included
    calls = []

    def spy(cells):
        calls.append(cells)
        return parse_row(cells)

    rows = plain_rows(20)
    rows[5:5] = rows[12:12] = [None]
    path = tmp_path / "plain.csv"
    path.write_bytes(csv_text(rows).replace("\n", newline).encode("utf-8"))
    expected = assert_file_matches_the_reference(path, block=8)
    monkeypatch.setattr(pipeline, "parse_row", spy)
    monkeypatch.setattr(pipeline, "_INGEST_BLOCK", 8)
    assert outcome(lambda: ingest(path)) == expected
    assert calls == [rows[0], rows[8], rows[16]]


@pytest.mark.parametrize("separator", ["T", " ", "X", "_"])
def test_date_and_time_separator(tmp_path, separator):
    rows = plain_rows(10)
    rows[0][0] = rows[4][0] = f"2024-01-01{separator}00:00:00"
    path = tmp_path / "separator.csv"
    path.write_text(csv_text(rows), encoding="utf-8")
    got, _ = assert_file_matches_the_reference(path, block=4)
    assert got[1] == ([] if separator in "T " else [(1, "bad-time"), (5, "bad-time")])


@pytest.mark.parametrize("block", [64, pipeline._INGEST_BLOCK])
def test_quoted_field_across_a_block_boundary(tmp_path, block):
    spanning = valid_rows(1, seed=50)[0]
    spanning[1] = "d\n" * 1200
    rows = valid_rows(8) + [spanning] + valid_rows(12, seed=20)
    rows[3][CSV_COLUMNS.index("co2")] = rows[15][CSV_COLUMNS.index("co2")] = "abc"
    path = tmp_path / "spanning.csv"
    path.write_text(csv_text(rows), encoding="utf-8")
    got, _ = assert_file_matches_the_reference(path, block)
    # lines count records: the field's 1,200 line breaks do not count
    assert got[:2] == (21, [(4, "bad-co2"), (9, "bad-device_id"), (16, "bad-co2")])
