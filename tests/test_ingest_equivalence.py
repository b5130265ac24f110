"""Ingest against the row-by-row code it replaced.

Three references are kept below.  The per-cell ``parse_row`` and the
ingest loop that appended each parsed row to its column buffers pin the
values of a row.  The per-line reader, a ``csv`` reader and ``parse_row``
on each physical line, with a line that leaves a quote open rejected, pins
rejections, line numbers and log records.  The record-by-record reader, one
``csv`` reader over the whole text, is what ingest read before each line
became one record; where every line closes its quotes the two readers
agree, so the change is confined to records that span lines.  Ingest parses
a block of lines at a time with ``np.loadtxt`` and checks whole columns,
leaving every other line to ``csv`` and ``parse_row``, and reads a large
file in byte ranges on forked processes.  On any input it must give the
same ``rows_read``, the same rejections with the same reasons in the same
order, columns of the same dtype and the same bytes, and the same log
records, on one CPU, two or three, as one range or several.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import multiprocessing
import os
import random
import re
import signal
import threading
import time
import warnings
from array import array
from contextlib import contextmanager
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from loraprop import cli, pipeline
from loraprop.errors import InvalidDataError, LorapropError
from loraprop.fitting import fit
from loraprop.pipeline import IngestResult, Rejection, csv_lines, ingest, write_records_csv
from loraprop.propagation import ModelVariant
from loraprop import records
from loraprop.records import (
    COLUMN_DTYPES,
    CSV_COLUMNS,
    MAX_DEVICE_ID_CHARS,
    ObservationTable,
    parse_row,
)

from helpers import synth_dataset, use_cpus

log = logging.getLogger(__name__)

_INT_COLUMNS = frozenset({"SF", "f_count", "p_count", "c_walls", "w_walls"})
_MAX = 1.7976931348623157e308
#: Each ranged column's closed interval, in check order, written out here
#: and not read from ``records.COLUMN_RANGES``.
RANGES = [
    ("SF", 7, 12),
    ("distance", 5e-324, _MAX),
    ("c_walls", 0, _MAX),
    ("w_walls", 0, _MAX),
    ("frequency", 137.0, 1020.0),
    ("co2", 0.0, 1e6),
    ("humidity", 0.0, 100.0),
    ("pm25", 0.0, _MAX),
    ("pressure", -_MAX, _MAX),
    ("temperature", -_MAX, _MAX),
    ("rssi", -200.0, 30.0),
    ("snr", -32.0, 32.0),
]


# ---------------------------------------------------------------------------
# Reference: the per-row code, verbatim but for the range checks, which
# follow :data:`RANGES`


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
    for column, low, high in RANGES:
        value = typed[CSV_COLUMNS.index(column)]
        if not low <= value <= high:
            raise InvalidDataError(f"bad-{column}: {value} outside [{low}, {high}]")
    return tuple(typed)


def physical_lines(text: str) -> list[str]:
    """The lines of ``text``, each with its end: ``\\n``, ``\\r\\n`` or ``\\r``."""
    return re.findall(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", text)


def quote_closes(line: str) -> bool:
    """Whether each quote that opens a field of ``line`` closes on it, as the
    ``csv`` module's default dialect reads quotes: a quote opens a field only
    as its first character, and in a quoted field two quotes stand for one
    and a single one closes it."""
    quoted, field_start, k = False, True, 0
    while k < len(line):
        char = line[k]
        if quoted and char == '"' and line[k + 1 : k + 2] == '"':
            k += 1
        elif char == '"' and (quoted or field_start):
            quoted = not quoted
        field_start = char == "," and not quoted
        k += 1
    return not quoted


def line_cells(line: str) -> list[str]:
    """The cells of one physical line, read by a ``csv`` reader of its own;
    a quote that does not close on the line is a :class:`csv.Error`."""
    cells = next(csv.reader([line]), [])
    if not quote_closes(line):
        raise csv.Error(f"quote not closed on its line, in {cells[-1]!r}")
    return cells


def csv_reason(exc: csv.Error) -> str:
    """The reason tag of a line ``csv`` refuses."""
    return "oversized-field" if str(exc).startswith("field larger than field limit") else "bad-csv"


def reference_ingest(text: str) -> IngestResult:
    lines = physical_lines(text)
    assert tuple(line_cells(lines[0])) == CSV_COLUMNS
    # one buffer per column, typed arrays for the numeric ones, which the
    # table then takes without a copy: no row outlives its parse as objects
    buffers = [[] if d.kind in "MU" else array(d.char) for d in COLUMN_DTYPES.values()]
    appends = [buffer.append for buffer in buffers]
    rejections: list[Rejection] = []
    rows = 0
    for line, text_line in enumerate(lines[1:], start=1):
        try:
            row = line_cells(text_line)
        except csv.Error as exc:
            rows += 1
            rejections.append(Rejection(line=line, reason=csv_reason(exc)))
            continue
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


def _read(header: list[str] | csv.Error | None, numbered) -> tuple:
    """What :func:`outcome` gives for a text whose first record reads as
    ``header`` (None if there is none, the error if ``csv`` refuses it) and
    whose other records are ``numbered`` as ``(line, cells or csv.Error)``."""
    if header is None:
        return (InvalidDataError, "malformed header: empty input"), []
    if isinstance(header, csv.Error):
        return (InvalidDataError, f"malformed header: {header}"), []
    if tuple(header) != CSV_COLUMNS:
        return (InvalidDataError, f"malformed header: expected {list(CSV_COLUMNS)}, got {header}"), []
    parsed, rejections, logged = [], [], []
    rows = 0
    for line, row in numbered:
        if isinstance(row, csv.Error):
            rows += 1
            rejections.append((line, csv_reason(row)))
            logged.append(("DEBUG", f"rejected row {line}: {row}"))
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


def _cells_or_error(line: str) -> list[str] | csv.Error:
    try:
        return line_cells(line)
    except csv.Error as exc:
        return exc


def reference_read(text: str) -> tuple:
    """The per-line reader of ``text``, each physical line one record
    (:func:`line_cells`): what :func:`outcome` gives for it."""
    lines = physical_lines(text)
    header = _cells_or_error(lines[0]) if lines else None
    return _read(header, ((line, _cells_or_error(cells)) for line, cells in enumerate(lines[1:], start=1)))


def record_read(text: str) -> tuple:
    """The record-by-record reader of ``text``, one ``csv`` reader over all
    of it, whose records may span lines and whose line numbers count
    records: what ingest gave before each line became one record."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        header = None
    except csv.Error as exc:
        header = exc

    def numbered():
        line = 0
        while True:
            line += 1
            try:
                yield line, next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                yield line, exc

    return _read(header, numbered())


# ---------------------------------------------------------------------------
# Inputs

HEADER_LINE = ",".join(CSV_COLUMNS) + "\n"

VALID = {
    "time": ["2024-01-01 00:00:00", "2024-03-05T12:34:56.789", "2024-01-01 00:00:00.25",
             "2024-1-1 0:00:00", "20240101T000036", "2024-W01-1", "2023-12-31 23:59:59"],
    "device_id": ["dev0", "dev1", " dev2 ", "d" * MAX_DEVICE_ID_CHARS, "ünï"],
    "SF": ["7", "8", "9", "10", "11", "12", "12.0"],
    "frequency": ["868.1", "867.3", "137", "1020.0"],
    "f_count": ["0", "1", "65535", "70000", "-3"],
    "p_count": ["0", "7", "65535"],
    "distance": ["10.0", "0.5", "37", "1e2"],
    "c_walls": ["0", "1", "2"],
    "w_walls": ["0", "3", "5"],
    "co2": ["550.0", "360", "2200.5", "0", "1e6", "-0.0"],
    "humidity": ["38.0", "5", "95.25", "0", "100"],
    "pm25": ["2.0", "0", "1e3", "-0.0", "0.046336"],
    "rssi": ["-75.0", "-123.5", "-200", "30", "-0.0"],
    "snr": ["8.0", "-24.25", "19", "-32", "32", "0"],
}
#: Values of a column without a range but finiteness.
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


def ends(low: float, high: float) -> list[str]:
    """Cells of each end of a closed interval and of its float neighbour outside."""
    return [repr(low), repr(math.nextafter(low, -math.inf)), repr(high), repr(math.nextafter(high, math.inf))]


#: Values at the edges of each column's checks.
EDGES = {
    "time": ["2024-01-01 00:00:00+00:00", "2024-01-01T00:00:00-05:30", "2024-01-01 00:00:00Z",
             " 2024-01-01 00:00:00", "2024-1-1 0:00:00", "2024-01-01 24:00:00",
             "0001-01-01 00:00:00", "9999-12-31 23:59:59.999999"],
    "device_id": ["d" * MAX_DEVICE_ID_CHARS, "d" * (MAX_DEVICE_ID_CHARS + 1),
                  " " + "d" * MAX_DEVICE_ID_CHARS + " ", "dev\0", "\0dev", "　", "dev 1"],
    "SF": ["7.5", "8.25", "11.9", "9.000001", "6", "13", "6.999999", "12.000001", "1.2e1"],
    "frequency": ["0", "-0.0", "-868.1", "5e-324", "1e308", *ends(137.0, 1020.0)],
    "distance": ["0", "-0.0", "-1", "5e-324", "1e308", *ends(5e-324, _MAX)],
    "f_count": [str(2**63), str(-(2**63)), str(-(2**63) - 2**11), str(2**63 - 1),
                "9.2233720368547748e18", "-9.3e18", "1.5", "-1"],
    "p_count": [str(2**63), str(-(2**63)), "9.2233720368547748e18", "0.5"],
    "c_walls": ["-1", "-0.0", "0.5", "-1e-300", str(2**63), "9.2233720368547748e18"],
    "w_walls": ["-1", "-0.0", "0.5", "-1e-300", str(2**63), "9.2233720368547748e18"],
    "co2": ["-0.0", "1e308", *ends(0.0, 1e6)],
    "humidity": ["-0.0", "1e308", *ends(0.0, 100.0)],
    "pm25": ["-0.0", "-1", *ends(0.0, _MAX)],
    "rssi": ["-0.0", "1e308", *ends(-200.0, 30.0)],
    "snr": ["-0.0", "-1e308", *ends(-32.0, 32.0)],
}
FLOAT_EDGES = ["1e308", "-1e308", "5e-324", "nan", "inf", "1_000.5", *ends(-_MAX, _MAX)]
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


def csv_text(rows: list[list[str] | None], quoting: int = csv.QUOTE_MINIMAL) -> str:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n", quoting=quoting)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        if row is None:
            out.write("\n")
        else:
            writer.writerow(row)
    return out.getvalue()


def write_csv(path, text: str):
    """``path``, holding ``text`` encoded as ingest decodes it."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def assert_same_ingest(text: str, path) -> None:
    """``ingest`` of ``text`` written to the file ``path`` gives what the
    per-row reference gives."""
    expected = reference_ingest(text)
    result = ingest(write_csv(path, text))
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
def test_ingest_matches_the_per_row_reference(rows, block, scratch_csv):
    for cells in rows:
        if cells is not None:
            assert_same_parse(cells)
    with mock.patch.object(pipeline, "_INGEST_BLOCK", block):
        assert_same_ingest(csv_text(rows), scratch_csv)


def test_files_longer_than_one_block(scratch_csv):
    rng = random.Random(5)
    rows = []
    for _ in range(2 * pipeline._INGEST_BLOCK + 777):
        faults = [] if rng.random() < 0.9 else [
            (rng.randrange(6), rng.randrange(len(CSV_COLUMNS)), rng.randrange(1000))
        ]
        rows.append(random_row(rng.choice, faults))
    assert_same_ingest(csv_text(rows), scratch_csv)


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
def test_cells_at_the_edge_of_the_block_reader(cell, column, at, scratch_csv):
    # each cell, as the first row of a block, a later one or the last, gives
    # what the per-cell reference gives
    cells = [valid_cell(name, lambda options: options[0]) for name in CSV_COLUMNS]
    cells[CSV_COLUMNS.index(column)] = cell
    assert_same_parse(cells)
    assert_same_ingest(one_row_file(cells, at), scratch_csv)


def test_finite_values_whose_sum_overflows_are_accepted(scratch_csv):
    # pressure and temperature are bounded only by finiteness
    cells = [valid_cell(name, lambda options: options[0]) for name in CSV_COLUMNS]
    cells[CSV_COLUMNS.index("pressure")] = cells[CSV_COLUMNS.index("temperature")] = "1e308"
    assert_same_parse(cells)
    assert parse_row(cells)[5:7] == (1e308, 1e308)
    assert ingest(write_csv(scratch_csv, one_row_file(cells, 3))).records["pressure"][2] == 1e308


def test_each_block_s_first_row_is_checked_against_parse_row(monkeypatch, scratch_csv):
    calls = []

    def spy(cells):
        calls.append(cells)
        return parse_row(cells)

    monkeypatch.setattr(pipeline, "parse_row", spy)
    monkeypatch.setattr(pipeline, "_INGEST_BLOCK", 3)
    rows = plain_rows(10)
    ingest(write_csv(scratch_csv, csv_text(rows)))
    assert calls == [rows[0], rows[3], rows[6], rows[9]]

    monkeypatch.setattr(pipeline, "parse_row", lambda cells: parse_row(cells)[:-1] + (0.0,))
    with pytest.raises(RuntimeError, match="^ingest read line 1 as"):
        ingest(scratch_csv)


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


#: ``(CPUs, bytes per range)`` a file is read with: as one stream on one or two
#: CPUs, and in byte ranges on two and three.
READS = [(1, pipeline._MIN_RANGE_BYTES), (2, pipeline._MIN_RANGE_BYTES), (2, 1), (3, 1)]


def assert_file_matches_the_reference(path, block: int = pipeline._INGEST_BLOCK) -> tuple:
    """``ingest(path)`` in each way of :data:`READS`, in blocks of ``block``
    lines, gives what the per-line reader gives; returns that."""
    expected = reference_read(path.read_bytes().decode("utf-8-sig", "surrogateescape"))
    for cpus, range_bytes in READS:
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
                mock.patch.object(pipeline, "_INGEST_BLOCK", block), \
                mock.patch.object(pipeline, "_MIN_RANGE_BYTES", range_bytes):
            assert outcome(lambda: ingest(path)) == expected, (cpus, range_bytes)
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
def test_files_match_the_per_line_reader(rows, newline, bom, strays, block, scratch_csv):
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
def test_faults_in_random_blocks_match_the_per_line_reader(faults, block, scratch_csv):
    rows = plain_rows(300)
    for row, cell, column in faults:
        rows[row][column] = ODD_CELLS[cell]
    scratch_csv.write_text(csv_text(rows), encoding="utf-8")
    assert_file_matches_the_reference(scratch_csv, block)


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows,
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    strays=st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(STRAY_BYTES)), max_size=2),
)
def test_the_two_readers_agree_where_every_line_closes_its_quotes(rows, newline, quoting, strays):
    # where no record spans lines, reading each line as a record changes nothing
    text = csv_text(rows, quoting).replace("\n", newline)
    for position, piece in strays:
        at = position % (len(text) + 1)
        text = text[:at] + piece.decode("utf-8", "surrogateescape") + text[at:]
    assume(all(map(quote_closes, physical_lines(text))))
    assert reference_read(text) == record_read(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ('a,"b"\n', True), ('a,"b""c"\n', True), ('a,b"c\n', True), ('a,"b"c"\n', True), ("\n", True),
        ('a,"b\n', False), ('a,"b""\n', False), ('a,"b', False), ('"\r\n', False), ('a, "b",c\n', True),
    ],
)
def test_a_quote_that_does_not_close_on_its_line(text, expected):
    assert quote_closes(text) is expected
    if expected:
        assert reference_read(HEADER_LINE + text) == record_read(HEADER_LINE + text)
    else:
        with pytest.raises(csv.Error, match="^quote not closed on its line"):
            line_cells(text)


def test_quote_left_open_is_bad_csv_whatever_the_line_holds(tmp_path):
    lines = csv_text(plain_rows(3)).splitlines(keepends=True)
    lines[2] = lines[2].replace(",dev0,", ',"field limit,')
    path = tmp_path / "open.csv"
    path.write_text("".join(lines), encoding="utf-8")
    got, logged = assert_file_matches_the_reference(path)
    assert got[:2] == (3, [(2, "bad-csv")])
    assert logged[0][1].startswith("rejected row 2: quote not closed on its line, in 'field limit,")


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
    # without a \n there is no range boundary: the file is one range
    assert range_lines(path, 3) == [0]


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


def test_every_edge_value_matches_the_references(tmp_path):
    # each edge of every column's checks, one per row, read by parse_row and
    # by the block reader on 1, 2 and 3 CPUs
    rows = []
    for k, column in enumerate(CSV_COLUMNS):
        for cell in EDGES.get(column, FLOAT_EDGES):
            rows.append(plain_rows(1)[0])
            rows[-1][k] = cell
            assert_same_parse(rows[-1])
    path = tmp_path / "edges.csv"
    path.write_text(csv_text(rows), encoding="utf-8")
    got, _ = assert_file_matches_the_reference(path, block=16)
    assert 0 < len(got[1]) < len(rows)


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
    # each line is one record: the lines that open and close the quote leave
    # it open, and the 1,199 between them are one cell each
    assert got[:2] == (1221, [(4, "bad-co2"), (9, "bad-csv")] + [(line, "wrong-field-count") for line in range(10, 1209)]
                       + [(1209, "bad-csv"), (1216, "bad-co2")])


# ---------------------------------------------------------------------------
# Byte ranges


@contextmanager
def in_ranges(cpus: int):
    """Read any file of two bytes or more in byte ranges, on ``cpus`` CPUs."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            mock.patch.object(pipeline, "_MIN_RANGE_BYTES", 1):
        yield


def range_lines(path, cpus: int) -> list[int]:
    """The data line each byte range of ``path`` starts at on ``cpus`` CPUs,
    0 for the header, in a file whose lines end in ``\\n``."""
    with in_ranges(cpus):
        ranges = pipeline._ranges(path)
    data = path.read_bytes()
    return [data[:start].count(b"\n") for start, _ in ranges]


@pytest.fixture
def spied(monkeypatch):
    """The number of shares of each :func:`pipeline._fork_map` call that
    forks, and the number of calls that read a file as one range, as
    ``{"forked": [...], "streams": n}``."""
    calls = {"forked": [], "streams": 0}
    forked = pipeline._fork_map

    def spy_fork_map(task, shares, what):
        if len(shares) == 1:
            calls["streams"] += 1
        else:
            calls["forked"].append(len(shares))
        return forked(task, shares, what)

    monkeypatch.setattr(pipeline, "_fork_map", spy_fork_map)
    return calls


def test_rejections_on_both_sides_of_each_range_boundary(tmp_path, spied):
    path = tmp_path / "boundaries.csv"
    rows = plain_rows(60)
    path.write_text(csv_text(rows), encoding="utf-8")
    _, second, third = range_lines(path, 3)
    rssi = CSV_COLUMNS.index("rssi")
    for line in (second - 1, second, third - 1, third):
        rows[line - 1][rssi] = rows[line - 1][rssi].replace("5", "x", 1)  # same length: the ranges stay
    path.write_text(csv_text(rows), encoding="utf-8")
    assert range_lines(path, 3) == [0, second, third]
    got, logged = assert_file_matches_the_reference(path)
    lines = [second - 1, second, third - 1, third]
    assert got[:2] == (60, [(line, "bad-rssi") for line in lines])
    assert [message.split(":")[0] for level, message in logged if level == "DEBUG"] == [
        f"rejected row {line}" for line in lines
    ]
    assert logged[-1] == ("INFO", "ingested 56 rows, rejected 4 (6.6667%)")
    # one read in ranges on each of 2 and 3 CPUs, and none as one stream
    assert spied == {"forked": [2, 3], "streams": 2}


@pytest.fixture
def bounded():
    """A read that waits on a child for ever fails the test instead."""
    def expire(signum, frame):
        raise TimeoutError("ingest still waits after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("line", [1498, 3], ids=["last range", "first range"])
def test_quoted_lines_are_read_in_their_range(tmp_path, spied, bounded, line):
    # a range of 500 rows sends more column bytes than a pipe holds, so a
    # child whose columns the parent left unread would never end
    path = tmp_path / "quote.csv"
    rows = plain_rows(1500)
    rows[line - 1][1] = 'd"v'  # written as "d""v"
    rows[20][CSV_COLUMNS.index("co2")] = "abc"
    lines = csv_text(rows).splitlines(keepends=True)
    lines[line + 2] = '"' + lines[line + 2]  # a stray quote that does not close, two lines on
    path.write_text("".join(lines), encoding="utf-8")
    assert (range_lines(path, 3)[-1] < line) == (line == 1498)
    got, logged = assert_file_matches_the_reference(path)
    assert got[:2] == (1500, sorted([(21, "bad-co2"), (line + 2, "bad-csv")]))
    assert 'd"v' in np.frombuffer(got[2]["device_id"][1], got[2]["device_id"][0]).tolist()
    assert [level for level, _ in logged] == ["DEBUG", "DEBUG", "INFO"]
    # every read in ranges stays in ranges
    assert spied == {"forked": [2, 3], "streams": 2}


def test_quoted_header_is_read_in_its_range(tmp_path, spied):
    path = tmp_path / "quoted-header.csv"
    path.write_text(csv_text(plain_rows(30), csv.QUOTE_ALL), encoding="utf-8")
    assert path.read_text().startswith('"time","device_id",')
    got, _ = assert_file_matches_the_reference(path)
    assert got[:2] == (30, [])
    assert spied == {"forked": [2, 3], "streams": 2}


@pytest.mark.parametrize("end", ["\n", ""])
def test_body_of_one_line(tmp_path, end):
    path = tmp_path / "one.csv"
    path.write_text(csv_text(plain_rows(1))[:-1] + end, encoding="utf-8")
    # on three CPUs the second range starts at the line, the third would start at the end
    assert range_lines(path, 3) == [0, 1]
    got, _ = assert_file_matches_the_reference(path)
    assert got[:2] == (1, [])


def test_fifo_is_read_as_one_stream(tmp_path, spied):
    data = csv_text(valid_rows(30)).encode("utf-8")
    expected = reference_read(data.decode("utf-8"))
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    for cpus in (2, 3):
        # the daemonic writer cannot keep the tests from ending if ingest never opens the FIFO
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        with in_ranges(cpus):
            assert outcome(lambda: ingest(fifo)) == expected
        writer.join()
    assert spied == {"forked": [], "streams": 2}


@pytest.mark.parametrize("text", ["", "a,b,c\n" + csv_text(valid_rows(30))[len(HEADER_LINE):]],
                         ids=["empty", "other header"])
def test_malformed_header_in_a_file_and_a_fifo(tmp_path, bounded, text):
    # the range readers start before the first one reads the header; none is left behind
    expected = reference_read(text)
    assert expected[0][1].startswith("malformed header: ")
    assert_file_matches_the_reference(write_csv(tmp_path / "input.csv", text))
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(text.encode("utf-8"),), daemon=True)
    writer.start()
    with in_ranges(3):
        assert outcome(lambda: ingest(fifo)) == expected
    writer.join()


@pytest.mark.usefixtures("bounded")
class TestRangeProcesses:
    """The fork error paths of a file read in byte ranges: no error is lost
    and no process is left behind."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "ranges.csv"
        path.write_text(csv_text(plain_rows(50)), encoding="utf-8")
        return path

    @staticmethod
    def _on_read(monkeypatch, act, in_parent: bool = False):
        """Make each block read call ``act`` in a forked child (or, with
        ``in_parent``, in the parent) before it reads."""
        parent, read_block = os.getpid(), pipeline._read_block

        def spy(*args):
            if (os.getpid() == parent) == in_parent:
                act()
            return read_block(*args)

        monkeypatch.setattr(pipeline, "_read_block", spy)

    def test_child_that_dies_is_an_error_not_a_wait(self, path, monkeypatch):
        self._on_read(monkeypatch, lambda: os._exit(3))
        with in_ranges(2), pytest.raises(LorapropError, match=r"^ingest process \d+ ended without a result$"):
            ingest(path)
        assert multiprocessing.active_children() == []

    def test_error_in_a_child_is_raised_by_the_parent(self, path, monkeypatch):
        def fail():
            raise InvalidDataError("bad-child: read in a child")

        self._on_read(monkeypatch, fail)
        with in_ranges(3), pytest.raises(InvalidDataError, match="^bad-child: read in a child$"):
            ingest(path)
        assert multiprocessing.active_children() == []

    def test_error_in_the_parent_stops_the_children(self, path, monkeypatch):
        def fail():
            raise InvalidDataError("bad-parent")

        self._on_read(monkeypatch, fail, in_parent=True)
        with in_ranges(3), pytest.raises(InvalidDataError, match="^bad-parent$"):
            ingest(path)
        assert multiprocessing.active_children() == []

    def test_difference_in_a_child_names_the_line_and_its_range(self, path, monkeypatch):
        # parse_row differs from the block reader in the child only
        self._on_read(monkeypatch, lambda: setattr(pipeline, "parse_row", lambda cells: parse_row(cells)[:-1] + (0.0,)))
        with in_ranges(2):
            start = pipeline._ranges(path)[1][0]
            with pytest.raises(RuntimeError, match=rf"^ingest read line 1 of the byte range from {start} as "):
                ingest(path)
        assert multiprocessing.active_children() == []

    def test_daemonic_process_reads_one_stream(self, path):
        # a pool worker is daemonic, and a daemonic process may not start one
        with in_ranges(2), multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply(pipeline._ranges, (path,))
        assert got == [(0, None)]

    @pytest.mark.parametrize("slow", [0, 1, 2], ids=["parent", "first child", "last child"])
    def test_range_that_ends_last_changes_nothing(self, tmp_path, monkeypatch, slow):
        path = tmp_path / "late.csv"
        rows = plain_rows(90)
        path.write_text(csv_text(rows), encoding="utf-8")
        starts = range_lines(path, 3)
        assert len(starts) == 3
        rssi = CSV_COLUMNS.index("rssi")
        for line in (1, starts[1] - 1, starts[1], starts[2] + 1, 90):  # rejections in every range
            rows[line - 1][rssi] = rows[line - 1][rssi].replace("5", "x", 1)  # same length: the ranges stay
        path.write_text(csv_text(rows), encoding="utf-8")
        assert range_lines(path, 3) == starts
        expected = outcome(lambda: ingest(path))  # one range: the file is under _MIN_RANGE_BYTES
        assert len(expected[0][1]) == 5
        with in_ranges(3):
            late = pipeline._ranges(path)[slow][0]
        read_block = pipeline._read_block

        def spy(lines, first, start):
            if start == late:
                time.sleep(0.3)  # the other ranges are read, and the children's sent, before this one
            return read_block(lines, first, start)

        monkeypatch.setattr(pipeline, "_read_block", spy)
        with in_ranges(3):
            assert outcome(lambda: ingest(path)) == expected

    def test_fit_of_a_file_read_in_two_ranges_is_the_same_every_run(self, tmp_path):
        # the benchmark's check of the fitted coefficients, run in one process
        path = tmp_path / "train.csv"
        write_records_csv(csv_lines(synth_dataset(rows_per_device=60, seed=5, duplicates_per_device=0).records), path)
        params = []
        for run in range(3):
            report = tmp_path / f"report{run}.json"
            argv = ["fit", "--variant", "mw-ep", "--input", str(path), "--out", str(tmp_path / f"model{run}.json"),
                    "--report", str(report)]
            with in_ranges(2):
                assert len(pipeline._ranges(path)) == 2
                assert cli.main(argv) == 0
            params.append(json.loads(report.read_text())["params"])
        direct = fit(ingest(path).records, ModelVariant.MW_EP).params_by_name()
        assert params == [direct] * 3
