"""Dataset ingestion and the cleaning/splitting procedure.

Stage order is fixed: ingest (with type/range/finiteness validation) ->
per-device retransmission dedup -> spreading-factor exclusion -> per-device
anomaly screening -> train/test split.  Every stage is deterministic given
its seed, and each is idempotent on its own output.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import stat
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidDataError, LorapropError
from .jsonio import atomic_write, manifest, write_json
from .link_budget import DEFAULT_LINK_BUDGET, esp, excess_over_noise_db_array, noise_power
from .metrics import pdr
from .records import COLUMN_DTYPES, COLUMN_RANGES, CSV_COLUMNS, FEATURE_FIELDS, MAX_DEVICE_ID_CHARS, ObservationTable
from .records import check_setting, format_row, parse_row

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Work spread over forked processes


def _workers(most: int) -> int:
    """Processes to spread at most ``most`` shares of work over: one per CPU
    the process may use (``os.sched_getaffinity``), and 1 inside a daemonic
    process (a ``multiprocessing.Pool`` worker), which may not start one.
    There is no flag, setting or environment variable for it."""
    workers = max(1, min(len(os.sched_getaffinity(0)), most))
    if workers > 1:
        import multiprocessing  # here, not at the top: a command that forks nothing skips its import

        if multiprocessing.current_process().daemon:
            return 1
    return workers


def _in_child(conn, task, share) -> None:
    """Body of a forked process: send each value ``task(share)`` gives and
    then the end of them, or the exception that stopped it, to the parent."""
    try:
        for value in task(share):
            conn.send(("ok", value))
        reply = ("end", None)
    except BaseException as exc:  # the parent re-raises it
        reply = ("error", exc)
    conn.send(reply)
    conn.close()


def _received(child, receive, what: str):
    """The values ``child`` sends, up to the mark of their end: an exception
    it sends is raised again, and a child that ends before the mark is a
    :class:`LorapropError`."""
    while True:
        try:
            status, value = receive.recv()
        except EOFError:
            raise LorapropError(f"{what} process {child.pid} ended without a result") from None
        if status == "error":
            raise value
        if status == "end":
            return
        yield value


@contextmanager
def _fork_map(task, shares: list, what: str):
    """The values of ``task(share)`` for each share, an iterator per share:
    the parent runs the first share and a child forked for each other one
    runs that, from the memory it inherits, and sends each value as it is
    made, so the parent can take one value of each share at a time.  On
    leaving the block, the values still unread are read and dropped; on an
    error the children are stopped.  Either way the parent waits for every
    child.  A child's exception is raised again in the parent, and a child
    that dies without a result is a :class:`LorapropError`.  With one share
    no process is started."""
    if len(shares) == 1:
        yield [iter(task(shares[0]))]
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in shares[1:]:
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_in_child, args=(send, task, share), daemon=True)
            child.start()
            children.append((child, receive))
            send.close()  # so a child that dies leaves the parent an EOFError, not a wait
        values = [iter(task(shares[0]))] + [_received(child, receive, what) for child, receive in children]
        yield values
        for rest in values[1:]:
            deque(rest, maxlen=0)  # so that no child waits to send
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()


# ---------------------------------------------------------------------------
# Ingestion


@dataclass(frozen=True)
class Rejection:
    """One dropped input row: its 1-based data line number, counting the
    physical lines after the header, plus a reason tag."""

    line: int
    reason: str


@dataclass
class IngestResult:
    records: ObservationTable
    rejections: list[Rejection]
    rows_read: int


def ingest(path: str | Path) -> IngestResult:
    """Parse a CSV file into an observation table, dropping anything malformed.

    Each physical line is one record, and the first must be the canonical
    header, exactly.  Rows with missing cells, unparseable tokens,
    non-finite numbers, range violations or bytes that are not UTF-8, lines
    the ``csv`` module cannot read (a field over its size limit) and lines
    that leave a quote open are rejected and logged individually with a
    reason; line numbers count physical lines.  The byte ranges of
    :func:`_ranges` are read by :func:`_read_range`, the first in the
    process and each other one in a forked child (:func:`_fork_map`); the
    result and the log do not depend on the number of CPUs.
    """
    ranges = _ranges(path)
    ranges[-1] = (ranges[-1][0], None)  # the last range runs to the end, which a FIFO's size does not give
    with _fork_map(partial(_read_range, path), ranges, "ingest") as parts:
        return _joined(parts)


#: Lines :func:`ingest` parses at a time.
_INGEST_BLOCK = 4096
#: The fewest bytes of a file per range: a file under twice this is read as one range.
_MIN_RANGE_BYTES = 1 << 20
#: The dtypes of the number columns, which follow the time and the id.
_NUMBER_DTYPES = list(COLUMN_DTYPES.values())[2:]
#: A line as ``np.loadtxt`` reads it: time and id as bytes, the id one longer than a block takes, and the numbers.
_BLOCK_DTYPE = np.dtype([("time", "S27"), ("device_id", f"S{MAX_DEVICE_ID_CHARS + 1}"),
                         ("values", "f8", (len(_NUMBER_DTYPES),))])
#: The ASCII bytes ``str.strip`` removes.
_SPACE_BYTES = np.bincount([9, 10, 11, 12, 13, 28, 29, 30, 31, 32], minlength=256).astype(bool)
#: The number columns of integers, whose values must be whole.
_WHOLE = [k for k, dtype in enumerate(_NUMBER_DTYPES) if dtype == np.int64]
#: Each number column's bounds: its :data:`COLUMN_RANGES` interval, else any finite value.
_LOW, _HIGH = np.array([COLUMN_RANGES.get(name, (-np.finfo(float).max, np.finfo(float).max))
                        for name in CSV_COLUMNS[2:]]).T


def _ranges(path: str | Path) -> list[tuple[int, int]]:
    """The byte ranges ``(start, end)`` of a file, one per worker
    (:func:`_workers`) and per :data:`_MIN_RANGE_BYTES`: range ``k`` of ``n``
    starts right after the first ``\\n`` at or after byte ``size * k / n``.
    That is always a line start and a UTF-8 character boundary, and never
    inside a ``\\r\\n``; a file without a ``\\n``, such as a CR-only file, or
    anything but a regular file, such as a FIFO, is one range."""
    info = os.stat(path)
    workers = _workers(info.st_size // _MIN_RANGE_BYTES) if stat.S_ISREG(info.st_mode) else 1
    starts = [0]
    if workers > 1:
        with open(path, "rb") as raw:
            for k in range(1, workers):
                raw.seek(info.st_size * k // workers)
                while (piece := raw.readline(1 << 16)) and not piece.endswith(b"\n"):
                    pass
                if starts[-1] < raw.tell() < info.st_size:
                    starts.append(raw.tell())
    return list(zip(starts, starts[1:] + [info.st_size]))


class _ByteRange(io.RawIOBase):
    """The next ``size`` bytes of a binary file, as a raw stream that closes
    the file with itself."""

    def __init__(self, handle, size: int) -> None:
        self.handle, self.left = handle, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        got = self.handle.readinto(memoryview(buffer)[: self.left])
        self.left -= got
        return got

    def close(self) -> None:
        self.handle.close()
        super().close()


def _read_range(path: str | Path, bounds: tuple[int, int | None]):
    """The part (:meth:`_Ingest.part`) of the lines of the byte range
    ``(start, end)`` of a file, or from ``start`` to its end for None, read
    as text: a byte that is not UTF-8 becomes a lone surrogate, which rejects
    its row.  The first range skips a byte-order mark and checks the header
    line before its first block."""
    start, end = bounds
    raw = open(path, "rb")
    if start:
        raw.seek(start)
    if end is not None:
        raw = io.BufferedReader(_ByteRange(raw, end - start))
    with io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig", errors="surrogateescape", newline="") as text:
        if not start:
            _check_header(next(text, ""))
        out = _Ingest(text, start)
    return out.part()


def _cells(line: str) -> list[str]:
    """The cells of one physical line as a ``csv`` reader reads them; a
    quote opened on the line that does not close on it is a
    :class:`csv.Error`."""
    reader = csv.reader([line, ""])  # an open quote runs on into the empty line
    cells = next(reader)
    if reader.line_num > 1:
        raise csv.Error(f"quote not closed on its line, in {cells[-1]!r}")
    return cells


def _check_header(line: str) -> None:
    """Check that the first line of the input is the canonical header."""
    if not line:
        raise InvalidDataError("malformed header: empty input")
    try:
        names = _cells(line)
    except csv.Error as exc:
        raise InvalidDataError(f"malformed header: {exc}") from None
    if tuple(names) != CSV_COLUMNS:
        raise InvalidDataError(f"malformed header: expected {list(CSV_COLUMNS)}, got {names}")


def _joined(parts: list) -> IngestResult:
    """The ingest result of the parts of the input (:meth:`_Ingest.part`),
    in input order.  Line numbers count on from part to part; each
    rejection is logged at DEBUG in line order, then the counts at INFO.
    Each column is joined in turn, each part's pieces dropped once they are
    joined."""
    heads = [next(part) for part in parts]
    rejections: list[Rejection] = []
    rows = offset = 0
    for part_rows, lines, part_rejections, notes in heads:
        for rejection, note in zip(part_rejections, notes):
            rejections.append(Rejection(rejection.line + offset, rejection.reason))
            log.debug("rejected row %d: %s", rejections[-1].line, note)
        rows += part_rows
        offset += lines
    del heads
    columns = {name: np.concatenate([piece for part in parts for piece in next(part)]) for name in CSV_COLUMNS}
    result = IngestResult(records=ObservationTable(columns), rejections=rejections, rows_read=rows)
    log.info("ingested %d rows, rejected %d (%.4f%%)",
             len(result.records), len(rejections), 100.0 * (len(rejections) / rows) if rows else 0.0)
    return result


class _Ingest:
    """An :func:`ingest` run over the lines of the byte range from byte
    ``start`` of a file, read a block at a time (:func:`_read_block`): pieces
    of the table's columns, the rejections and the message of each, the rows
    read and the lines counted."""

    def __init__(self, lines: Iterable[str], start: int) -> None:
        self.pieces = [[np.array([], dtype) for dtype in COLUMN_DTYPES.values()]]  # of an empty table
        self.rejections, self.notes, self.rows, self.lines, self.start = [], [], 0, 0, start
        while block := list(islice(lines, _INGEST_BLOCK)):
            _read_block(block, self)

    def part(self):
        """What :func:`_joined` takes of this run: ``(rows read, lines,
        rejections, messages)``, then the pieces of each column in turn,
        each dropped from the run as it is given."""
        yield self.rows, self.lines, self.rejections, self.notes
        for _ in CSV_COLUMNS:
            yield [piece.pop(0) for piece in self.pieces]

    def take(self, line: str, number: int) -> tuple | None:
        """The values of ``line``, data line ``number``, read as one record
        through ``csv`` and :func:`parse_row`; None for a blank line, and for
        a rejected one, which is counted and kept with its reason."""
        try:
            if not (cells := _cells(line)):
                return None
            values = parse_row(cells)
        except (csv.Error, LorapropError) as exc:
            reason = str(exc).split(":", 1)[0]
            if isinstance(exc, csv.Error):
                reason = "oversized-field" if str(exc).startswith("field larger than field limit") else "bad-csv"
            self.rejections.append(Rejection(line=number, reason=reason))
            self.notes.append(str(exc))
            values = None
        self.rows += 1
        return values


def _read_block(lines: list[str], out: _Ingest) -> None:
    """Parse the lines into ``out``, each line one record.  The ASCII lines
    without a NUL or a quote long enough to hold a row go to ``np.loadtxt``
    at once (:func:`_load`); if it refuses one, the lines
    :func:`_plain_numbers` leaves out are set aside and the rest read by
    halves around any it still refuses.  The rows that pass every check
    (:func:`_checked`) are taken, the first also parsed by
    :func:`parse_row`, a difference being an error.  Every other line goes
    through ``csv`` and :func:`parse_row` (:meth:`_Ingest.take`)."""
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    text = "".join(lines)
    first, n = out.lines + 1, len(lines)
    out.lines += n
    plain = np.arange(n)
    if not text.isascii() or "\0" in text or '"' in text:
        plain = np.flatnonzero([line.isascii() and "\0" not in line and '"' not in line for line in lines])
    del text
    # a row is a character per cell and a comma between each two, and no cell may be over the csv module's limit
    ok = (lengths[plain] >= 2 * len(CSV_COLUMNS) - 1) & (lengths[plain] <= csv.field_size_limit())
    pieces = _load(lines, plain[ok], halves=False)
    if not pieces and ok.any():
        data = np.frombuffer("".join([lines[k] for k in plain.tolist()]).encode("ascii"), np.uint8)
        ends = np.cumsum(lengths[plain])
        pieces = _load(lines, plain[ok & _plain_numbers(data, ends - lengths[plain], ends)])
        del data
    columns, rows = None, plain[:0]
    if pieces:
        rows, table = (np.concatenate(part) if len(part) > 1 else part[0] for part in zip(*pieces))
        columns, good = _checked(table)
        rows = rows[good]
        out.rows += rows.size
    if rows.size:
        got = tuple(column[0].item() for column in columns)
        try:
            expected = parse_row(lines[rows[0]].rstrip("\r\n").split(","))
        except LorapropError as exc:
            expected = exc
        if repr(expected) != repr(got):
            where = f" of the byte range from {out.start}" if out.start else ""
            raise RuntimeError(f"ingest read line {first + rows[0]}{where} as {got!r}, parse_row as {expected!r}")
    taken = [(first + k, values) for k in np.flatnonzero(np.bincount(rows, minlength=n) == 0).tolist()
             if (values := out.take(lines[k], first + k)) is not None]
    if taken:
        at, rest = zip(*taken)
        parsed = [np.array(column, dtype) for column, dtype in zip(zip(*rest), COLUMN_DTYPES.values())]
        if columns is not None:
            order = np.argsort(np.concatenate([first + rows, at]), kind="stable")
            parsed = [np.concatenate(pair)[order] for pair in zip(columns, parsed)]
        columns = parsed
    if columns is not None and len(columns[0]):
        out.pieces.append(columns)


def _load(lines: list[str], rows: np.ndarray, halves: bool = True) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(rows, table)`` pieces of ``np.loadtxt`` of the quote-free lines at
    ``rows``, a table row per line: all of them, or with ``halves`` those
    found by halving around the lines numpy refuses."""
    if rows.size:
        try:
            table = np.loadtxt([lines[k] for k in rows.tolist()], _BLOCK_DTYPE, delimiter=",",
                               comments=None, quotechar=None, ndmin=1)
            if len(table) == rows.size:
                return [(rows, table)]
        except ValueError:
            pass
    if not halves or rows.size <= 1:
        return []
    return _load(lines, rows[: rows.size // 2]) + _load(lines, rows[rows.size // 2 :])


def _plain_numbers(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which lines, the ``data`` bytes from each start to each end, hold a
    cell per column, no line break but their own end and number cells of
    digits and ``+,-./eE`` only: those numpy and ``float`` likely read alike."""
    # a line's own end: \n, \r\n or \r, or nothing at the end of the input
    ending = ((data[ends - 1] == 10) | (data[ends - 1] == 13)).astype(np.intp)
    ending += (data[ends - 1] == 10) & (data[np.maximum(ends - 2, 0)] == 13) & (ends - starts >= 2)
    width = ends - starts - ending
    commas = np.append(np.flatnonzero(data == ord(",")), data.size)  # one past the end, so never empty
    before = np.searchsorted(commas, starts)
    low = np.flatnonzero(data <= 13)
    breaks = np.diff(np.searchsorted(low[(data[low] == 10) | (data[low] == 13)], ends), prepend=0)
    plain = (np.searchsorted(commas, starts + width) - before == len(CSV_COLUMNS) - 1) & (breaks == ending)
    # the number cells run from after the second comma to the line's end
    cells = np.where(plain, commas[np.minimum(before + 1, commas.size - 1)] + 1, starts)
    bounds = np.column_stack([cells, np.where(plain, starts + width, starts)]).ravel()
    other = ((data < ord("+")) | (data > ord("9"))) & ((data | 32) != ord("e"))
    plain &= ~np.logical_or.reduceat(other, bounds[: bounds.size - (bounds[-1] == data.size)])[::2]
    # ",," holds an empty cell, and so does a line that ends in ","
    plain[np.searchsorted(starts, commas[1:][np.diff(commas) == 1], side="right") - 1] = False
    plain[data[starts + width - 1] == ord(",")] = False
    return plain


def _checked(table: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The columns of the rows of a :func:`_load` table that pass every
    :func:`parse_row` check, and the mask of those rows.  A time passes only
    in the form ``YYYY-MM-DD[ T]HH:MM:SS[.ffffff]``, and an id only if
    ``str.strip`` leaves it as it is."""
    time = np.ascontiguousarray(table["time"]).view(np.uint8).reshape(-1, 27)
    digit = (time >= ord("0")) & (time <= ord("9"))
    value = time[:, :26].astype(np.int16)
    value -= ord("0")
    year, month, day, hour, minute, second, micro = (
        value[:, a:b] @ 10 ** np.arange(b - a - 1, -1, -1, dtype=np.int32)
        for a, b in ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19), (20, 26))
    )
    fraction = (time[:, 19] == ord(".")) & digit[:, 20:26].all(axis=1) & (time[:, 26] == 0)
    good = (
        digit[:, [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]].all(axis=1)
        & (time[:, [4, 7, 13, 16]] == np.frombuffer(b"--::", np.uint8)).all(axis=1)
        & ((time[:, 10] == ord(" ")) | (time[:, 10] == ord("T"))) & ((time[:, 19] == 0) | fraction)
        & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour < 24) & (minute < 60) & (second < 60)
    )
    months = np.where(good, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    days = months.astype("datetime64[D]")
    good &= day <= (months + 1).astype("datetime64[D]") - days
    of_day = ((hour * 60 + minute) * 60 + second).astype(np.int64) * 10**6 + np.where(fraction, micro, 0)
    chars = np.ascontiguousarray(table["device_id"]).view(np.uint8).reshape(-1, MAX_DEVICE_ID_CHARS + 1)
    size = np.count_nonzero(chars, axis=1)  # the line holds no NUL
    good &= (size >= 1) & (size <= MAX_DEVICE_ID_CHARS) & ~_SPACE_BYTES[chars[:, 0]]
    good &= ~_SPACE_BYTES[chars[np.arange(size.size), np.maximum(size - 1, 0)]]
    values = table["values"]
    whole = values[:, _WHOLE]
    good &= ((values >= _LOW) & (values <= _HIGH)).all(axis=1)  # NaN and infinities too
    good &= ((np.trunc(whole) == whole) & (whole < 2.0**63) & (whole >= -(2.0**63))).all(axis=1)
    # ASCII bytes widened to UCS-4 code points are the ids as numpy str
    width = max(1, int(size[good].max(initial=0)))
    ids = chars[good, :width].astype(np.uint32).view(f"U{width}").ravel()
    numbers = [column[good].astype(dtype, copy=False) for column, dtype in zip(values.T, _NUMBER_DTYPES)]
    times = (days + (day - 1)).astype("datetime64[us]") + of_day
    return [times[good], ids, *numbers], good


#: Gap in dB from its defining identity at which a derived cell is a violation.
_AUDIT_TOLERANCE_DB = 0.01


def audit_derived_columns(records: ObservationTable) -> int:
    """Cross-check the derived columns against their defining identities
    under :data:`DEFAULT_LINK_BUDGET`: the number of cells (``exp_pl``,
    ``esp``, ``n_power``) off by 0.01 dB or more.

    Violations are counted and logged, never repaired: a mismatch means the
    exporting system disagrees with the documented derivation.
    """
    rssi, snr = records["rssi"], records["snr"]
    offset = DEFAULT_LINK_BUDGET.link_offset_db
    violations = 0
    with np.errstate(all="ignore"):
        excess = excess_over_noise_db_array(snr)
        # the array excess may differ from the scalar one by a few ulps of the
        # readings: a gap this close to the tolerance is decided by the scalar
        # identity
        slack = 1e-9 + 1e-12 * (np.abs(rssi) + np.abs(snr))
        for expected, actual, identity in (
            (offset - rssi, records["exp_pl"], lambda rssi_dbm, snr_db: offset - rssi_dbm),
            (rssi + snr - excess, records["esp"], esp),
            (rssi - excess, records["n_power"], noise_power),
        ):
            gap = np.abs(expected - actual)
            edge = np.abs(gap - _AUDIT_TOLERANCE_DB) <= slack
            violations += int(np.count_nonzero((gap >= _AUDIT_TOLERANCE_DB) & ~edge))
            violations += sum(
                abs(identity(r, s) - a) >= _AUDIT_TOLERANCE_DB
                for r, s, a in zip(rssi[edge].tolist(), snr[edge].tolist(), actual[edge].tolist())
            )
    if violations:
        log.warning("derived-column audit: %d violations", violations)
    return violations


# ---------------------------------------------------------------------------
# Cleaning stages


def dedup_retransmissions(records: ObservationTable, window_s: float = 2.0) -> ObservationTable:
    """Drop per-device repeats of an unchanged frame counter within a short
    window, keeping the earliest arrival (the original transmission).

    Rows are first brought into canonical (device, time, counter) order, so
    the result does not depend on input ordering.  A repeat is measured
    against the last *kept* row of its device, so a chain of repeats longer
    than the window keeps one row per window.  Time deltas are raw
    wall-clock differences.
    """
    check_setting("dedup_window_s", window_s, 0.0, math.inf, "[)")
    order = np.lexsort((records["f_count"], records["time"], records["device_id"]))
    device = records["device_id"][order]
    f_count = records["f_count"][order]
    micros = records["time"][order].view(np.int64)
    keep = np.ones(order.size, dtype=bool)
    # only a row that repeats its predecessor's device and counter can be
    # dropped; its anchor is the predecessor unless that was a repeat too
    repeats = np.flatnonzero((device[1:] == device[:-1]) & (f_count[1:] == f_count[:-1])) + 1
    anchor = previous = -1
    for i in repeats.tolist():
        if i - 1 != previous:
            anchor = i - 1
        if int(micros[i] - micros[anchor]) / 10**6 <= window_s:
            keep[i] = False
        else:
            anchor = i
        previous = i
    return records.take(order[keep])


#: Spreading factors the pipeline drops.
EXCLUDED_SF = frozenset({11, 12})


def filter_sf(records: ObservationTable) -> ObservationTable:
    """Remove rows whose spreading factor is in :data:`EXCLUDED_SF`."""
    return records.take(~np.isin(records["SF"], sorted(EXCLUDED_SF)))


# ---------------------------------------------------------------------------
# Feature scaling


def standardize(
    records: ObservationTable, features: Sequence[str] = FEATURE_FIELDS
) -> tuple[np.ndarray, list[str], list[str]]:
    """Z-score the feature columns that can be: ``(scaled, constant, unscalable)``.

    ``scaled`` is the N x k matrix ``(raw - mean) / std`` of the usable
    features, in the given order; ``constant`` names the features with one
    value, and ``unscalable`` those that vary but whose spread is not finite
    and positive (a sum overflows or the squares underflow).  With two or
    more features, each column of the C-contiguous matrix is summed row by row.
    """
    if len(records) < 2:
        raise InvalidDataError("standardize needs at least two records")
    raw = np.empty((len(records), len(features)))
    for k, name in enumerate(features):
        raw[:, k] = records[name]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
    usable, constant, unscalable = [], [], []
    for k, (name, low, high, spread) in enumerate(
        zip(features, raw.min(axis=0).tolist(), raw.max(axis=0).tolist(), std.tolist())
    ):
        if not low < high:
            constant.append(name)
        elif not 0.0 < spread < math.inf:
            unscalable.append(name)
        else:
            usable.append(k)
    return (raw[:, usable] - mean[usable]) / std[usable], constant, unscalable


# ---------------------------------------------------------------------------
# Isolation forest (from scratch)


@dataclass(frozen=True)
class IsolationForestConfig:
    n_trees: int = 100
    subsample_size: int = 256
    contamination: float = 0.01
    seed: int = 42

    def __post_init__(self) -> None:
        check_setting("contamination", self.contamination, 0.0, 0.5, "()")
        check_setting("n_trees", self.n_trees, 1, math.inf, "[)")
        check_setting("subsample_size", self.subsample_size, 2, math.inf, "[)")
        check_setting("seed", self.seed, 0, math.inf, "[)")


@dataclass(frozen=True)
class IsolationTree:
    """One isolation tree as parallel per-node arrays in depth-first preorder.

    A split node sends a row to ``left`` when its ``feature`` value is below
    ``threshold``, else to ``right``.  A leaf points to itself on both sides,
    so a row that reaches it stays there, and its ``leaf_depth`` is its depth
    plus c(size) of the training points that ended up in it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_depth: np.ndarray


_EULER_GAMMA = 0.5772156649015329


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search depth c(n) of a binary search tree."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1.0) + _EULER_GAMMA) - 2.0 * (n - 1.0) / n


#: Nodes of at most this many points are split as Python lists of points.
_SMALL_NODE = 16


def _build_tree(sample: np.ndarray, rng: np.random.Generator, max_depth: int) -> IsolationTree:
    """Grow one tree on the F x psi ``sample`` (one row per feature).

    Nodes are visited in depth-first preorder, left before right, so the two
    draws of each split come in the order a recursive build makes them;
    another order would grow other trees from the same seed.  The draws are
    made from raw words exactly as ``rng.integers(k)`` (Lemire's method on
    buffered 32-bit halves) and ``rng.uniform`` make them.  Values must be finite.
    """
    bits = rng.bit_generator
    start = bits.state
    has_half, half = start["has_uint32"], start["uinteger"]
    # raw words in blocks of 256, numbered from 1 so that ``used`` counts those taken
    words = enumerate(chain.from_iterable(iter(lambda: bits.random_raw(256).tolist(), None)), 1)
    used = 0
    nodes: list[list] = []  # [feature, threshold, left, right, leaf_depth]
    # (points as F x n columns, n point rows or, for a leaf, None; n; depth; the parent it is the right child of)
    stack: list[tuple] = [(sample, sample.shape[1], 0, None)]
    while stack:
        points, size, depth, parent = stack.pop()
        node = len(nodes)
        if parent is not None:
            parent[3] = node
        if points is not None:
            if type(points) is list:  # a column splits unless all its values are equal
                columns = list(zip(*points))
                splittable = [k for k, column in enumerate(columns) if column.count(column[0]) < size]
            else:
                lows, highs = points.min(axis=1).tolist(), points.max(axis=1).tolist()
                splittable = [k for k, (low, high) in enumerate(zip(lows, highs)) if high > low]
            if splittable:
                k, u = len(splittable), 0  # k = 1 takes no draw
                while k > 1:
                    if has_half:
                        has_half, u = 0, half
                    else:
                        used, word = next(words)
                        has_half, u, half = 1, word & 0xFFFFFFFF, word >> 32
                    if u * k & 0xFFFFFFFF >= (2**32 - k) % k:
                        break
                split_on = splittable[u * k >> 32]
                if type(points) is list:
                    low, high = min(columns[split_on]), max(columns[split_on])
                else:
                    low, high = lows[split_on], highs[split_on]
                used, word = next(words)
                cut = low + (high - low) * ((word >> 11) * 2.0**-53)
                nodes.append([split_on, cut, node + 1, -1, 0.0])
                if type(points) is list:
                    sides = [p for p in points if not p[split_on] < cut], [p for p in points if p[split_on] < cut]
                    n_left = len(sides[1])
                else:
                    below = points[split_on] < cut
                    sides, n_left = (~below, below), int(np.count_nonzero(below))
                # right child first, so the left one is grown first
                for side, n, right_of in zip(sides, (size - n_left, n_left), (nodes[-1], None)):
                    if n <= 1 or depth + 1 >= max_depth:
                        side = None  # a leaf needs only its size
                    elif type(side) is not list:
                        side = points.compress(side, axis=1)
                        if n <= _SMALL_NODE:
                            side = side.T.tolist()
                    stack.append((side, n, depth + 1, right_of))
                continue
        nodes.append([0, 0.0, node, node, depth + average_path_length(size)])
    # leave the generator as the per-call draws would: ``used`` words on, a half buffered or not
    bits.state = start
    bits.advance(used)
    bits.state = {**bits.state, "has_uint32": has_half, "uinteger": half}
    return IsolationTree(*(np.array(column) for column in zip(*nodes)))


@dataclass(frozen=True)
class IsolationForestModel:
    trees: tuple[IsolationTree, ...]
    subsample_size: int

    def path_lengths(self, matrix: np.ndarray) -> np.ndarray:
        """Mean isolation depth per row, leaf sizes adjusted by c(size)."""
        matrix = np.asarray(matrix, dtype=float)
        n, width = matrix.shape
        values = matrix.ravel()
        row_start = np.arange(n) * width
        totals = np.zeros(n)
        for tree in self.trees:
            # one level per step; a leaf keeps its rows, and the depth limit bounds the steps
            node = np.zeros(n, dtype=np.intp)
            for _ in range((self.subsample_size - 1).bit_length()):
                below = values.take(row_start + tree.feature.take(node)) < tree.threshold.take(node)
                node = np.where(below, tree.left.take(node), tree.right.take(node))
            totals += tree.leaf_depth.take(node)
        return totals / len(self.trees)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        """Anomaly score 2^(-E[h]/c(psi)); near 1 means easily isolated."""
        normaliser = average_path_length(self.subsample_size)
        return 2.0 ** (-self.path_lengths(matrix) / normaliser)


def fit_isolation_forest(
    matrix: np.ndarray, config: IsolationForestConfig
) -> IsolationForestModel:
    """Grow the randomized tree ensemble on subsamples of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    # one row would make psi = 1, whose score normaliser c(1) is 0
    if matrix.ndim != 2 or matrix.size == 0 or len(matrix) < 2:
        raise InvalidDataError("need a non-empty 2-D matrix with at least two rows")
    with np.errstate(over="ignore", invalid="ignore"):  # cuts are drawn from column ranges
        if not np.isfinite(matrix.max(axis=0) - matrix.min(axis=0)).all():
            raise InvalidDataError("matrix holds a non-finite value or a column range that overflows")
    n = matrix.shape[0]
    rng = np.random.default_rng(config.seed)
    psi = min(config.subsample_size, n)
    max_depth = (psi - 1).bit_length()  # ceil(log2(psi))
    # one contiguous row per feature: a node's min/max run along memory
    columns = np.ascontiguousarray(matrix.T)
    trees = []
    for _ in range(config.n_trees):
        sample = columns.take(rng.choice(n, size=psi, replace=False), axis=1)
        trees.append(_build_tree(sample, rng, max_depth))
    return IsolationForestModel(trees=tuple(trees), subsample_size=psi)


def isolation_forest(
    matrix: np.ndarray, config: IsolationForestConfig
) -> np.ndarray:
    """The flag mask of the rows: exactly ``round(contamination * N)`` of them,
    those the forest scores highest, are flagged.

    The cutoff is an exact score quantile (ties broken by row order), which
    keeps the flagged count reproducible run-to-run.
    """
    scores = fit_isolation_forest(matrix, config).scores(matrix)
    n = scores.size
    k = int(round(config.contamination * n))
    flags = np.zeros(n, dtype=bool)
    if k > 0:
        order = np.argsort(-scores, kind="stable")
        flags[order[:k]] = True
    return flags


def _rows_by_device(records: ObservationTable) -> list[tuple[str, np.ndarray]]:
    """``(device, row indices in table order)`` per device, devices sorted."""
    devices, codes = np.unique(records["device_id"], return_inverse=True)
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=devices.size))
    return list(zip(devices.tolist(), np.split(order, ends[:-1])))


def _screen_device(rows: ObservationTable, config: IsolationForestConfig):
    """Screen one device's rows (two or more): its flags, or None when no
    feature can be used, and its constant and unscalable features."""
    scaled, constant, unscalable = standardize(rows)
    return (isolation_forest(scaled, config) if scaled.shape[1] else None), constant, unscalable


def _shares(devices: list, workers: int, subsample_size: int) -> list[list]:
    """Split ``(device, row indices)`` pairs into ``workers`` shares, largest
    first onto the lightest share, weighing a device by rows + subsample size."""
    shares: list[list] = [[] for _ in range(workers)]
    loads = [0] * workers
    for device, idx in sorted(devices, key=lambda pair: -pair[1].size):
        lightest = loads.index(min(loads))
        shares[lightest].append((device, idx))
        loads[lightest] += idx.size + subsample_size
    return shares


def flag_anomalies(
    records: ObservationTable, config: IsolationForestConfig
) -> tuple[np.ndarray, dict[str, list[str]]]:
    """Per-device anomaly flags over all rows, aligned with table order, and
    the constant feature columns of each device that has any.

    Each device gets its own scaler and forest so one node's operating
    pattern cannot mask another's outliers.  A device is screened on the
    features :func:`standardize` can use; one with fewer than two rows or no
    usable feature is passed through unflagged.  Devices are spread over the
    workers (:func:`_fork_map`); flags and warnings do not depend on the
    number of CPUs.
    """
    flags = np.zeros(len(records), dtype=bool)
    constant: dict[str, list[str]] = {}
    devices = _rows_by_device(records)
    screened = [(device, idx) for device, idx in devices if idx.size >= 2]
    shares = _shares(screened, _workers(len(screened)), config.subsample_size)
    with _fork_map(lambda share: [_screen_device(records.take(idx), config) for _, idx in share],
                   shares, "anomaly screening") as values:
        results = dict(zip((device for device, _ in chain.from_iterable(shares)), chain.from_iterable(values)))
    for device, idx in devices:
        if idx.size < 2:
            log.warning("device %s has %d record(s); skipping anomaly screen", device, idx.size)
            continue
        device_flags, device_constant, unscalable = results[device]
        if device_constant:
            log.warning("device %s has constant feature(s) %s; screening on the others", device, device_constant)
            constant[device] = device_constant
        if unscalable:
            log.warning("device %s has feature(s) %s that cannot be standardised; screening on the others",
                        device, unscalable)
        if device_flags is not None:
            flags[idx] = device_flags
    return flags, constant


# ---------------------------------------------------------------------------
# Splitting


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 42

    def __post_init__(self) -> None:
        check_setting("test_fraction", self.test_fraction, 0.0, 1.0, "()")
        check_setting("seed", self.seed, 0, math.inf, "[)")


def split(records: ObservationTable, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random train/test partition, deterministic per seed: the
    sorted row indices ``(train_index, test_index)``."""
    if len(records) < 2:
        raise InvalidDataError("need at least two records to split")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(records))
    n_test = int(round(spec.test_fraction * len(records)))
    if not 0 < n_test < len(records):
        raise InvalidDataError(f"test fraction {spec.test_fraction} of {len(records)} records leaves one side empty")
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def daily_distribution(records: ObservationTable) -> dict[str, float]:
    """Percentage of rows per calendar day (ISO date -> share in %)."""
    days, counts = np.unique(records["time"].astype("datetime64[D]"), return_counts=True)
    total = len(records)
    shares = zip(days.tolist(), counts.tolist())
    return {day.isoformat(): 100.0 * count / total for day, count in shares}


def check_kfold(folds: int, seed: int) -> None:
    """Refuse a fold count below 2 or a negative seed."""
    check_setting("folds", folds, 2, math.inf, "[)")
    check_setting("seed", seed, 0, math.inf, "[)")


def kfold(
    records: ObservationTable, folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold index partition: ``[(train_idx, validation_idx), ...]``.

    Validation sets are disjoint, cover every record exactly once and differ
    in size by at most one.
    """
    check_kfold(folds, seed)
    if len(records) < folds:
        raise InvalidDataError(f"too few records ({len(records)}) for {folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    parts = np.array_split(order, folds)
    return [
        (np.sort(np.concatenate(parts[:i] + parts[i + 1 :])), np.sort(validation))
        for i, validation in enumerate(parts)
    ]


# ---------------------------------------------------------------------------
# End-to-end run


@dataclass
class PipelineResult:
    """The cleaned table and the sorted row indices of its train/test split."""

    clean: ObservationTable
    train_index: np.ndarray
    test_index: np.ndarray
    manifest: dict


#: Rows :func:`csv_lines` formats at a time.  A block's cells are all held as
#: Python strings at once, so the size is set for memory: larger blocks raise
#: a run's peak memory without making it faster.
_LINE_BLOCK = 512


def _time_cells(times: np.ndarray) -> list[str]:
    """``datetime.isoformat(sep=" ")`` of each time: microseconds only when
    they are not 0."""
    return [
        text.replace("T", " ").removesuffix(".000000")
        for text in np.datetime_as_string(times, unit="us").tolist()
    ]


def _id_cells(ids: np.ndarray) -> list[str]:
    """Each id as the ``csv`` module writes it in a row, each distinct id
    quoted once."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    quoted: list[str] = []
    # a second, empty field: alone in a row, an empty id is written as '""'
    csv.writer(SimpleNamespace(write=quoted.append), lineterminator="\n").writerows(
        (value, "") for value in distinct.tolist()
    )
    cells = [line.removesuffix(",\n") for line in quoted]
    return [cells[i] for i in inverse.tolist()]


def _number_cells(values: np.ndarray) -> list[str]:
    """``str`` of each value (a float's ``repr``, an int's digits), each
    distinct bit pattern formatted once, so -0.0 and 0.0 stay apart."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * distinct.size > values.size:  # looking the texts up would cost more than it saves
        return list(map(str, values.tolist()))
    texts = list(map(str, distinct.view(values.dtype).tolist()))
    return [texts[i] for i in inverse.tolist()]


def _row_line(values: Sequence) -> str:
    """The CSV line of one row's typed values, formatted by :func:`format_row`
    and written by a ``csv.writer``: the row-by-row form of a line."""
    line: list[str] = []
    csv.writer(SimpleNamespace(write=line.append), lineterminator="\n").writerow(format_row(values))
    return line[0]


def csv_lines(records: ObservationTable) -> list[str]:
    """One ``\\n``-terminated CSV line per row, no header, in the canonical
    column order and formatting: the time as ``datetime.isoformat(sep=" ")``,
    the id as the ``csv`` module quotes it, floats as their ``repr`` and ints
    as their digits.  Lines are built a block of rows at a time, each column
    of a block formatted at once.

    The first line of each block is checked against :func:`_row_line`, so a
    numpy or ``csv`` module that formats a cell differently is an error rather
    than a silently different file.
    """
    lines: list[str] = []
    columns = [records[name] for name in CSV_COLUMNS]
    for start in range(0, len(records), _LINE_BLOCK):
        block = [column[start : start + _LINE_BLOCK] for column in columns]
        time, device_id, *numbers = block
        cells = zip(_time_cells(time), _id_cells(device_id), *map(_number_cells, numbers))
        lines.extend([",".join(row) + "\n" for row in cells])
        expected = _row_line([column[0].item() for column in block])
        if lines[start] != expected:
            raise RuntimeError(f"csv_lines wrote row {start} as {lines[start]!r}, format_row as {expected!r}")
    return lines


def write_records_csv(lines: Iterable[str], path: str | Path) -> None:
    """Write the header and the given :func:`csv_lines` lines, atomically."""
    with atomic_write(path, newline="") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        handle.writelines(lines)


def run_pipeline(
    input_path: str | Path,
    out_dir: str | Path,
    seed: int = 42,
    contamination: float = 0.01,
    dedup_window_s: float = 2.0,
    test_fraction: float = 0.2,
) -> PipelineResult:
    """Run every cleaning stage and write the cleaned/train/test CSVs plus a
    machine-readable manifest into ``out_dir``.

    All randomness derives from ``seed``; rerunning with identical inputs
    produces byte-identical files.
    """
    # every setting is checked before the input is read
    if_config = IsolationForestConfig(contamination=contamination, seed=seed)
    split_spec = SplitSpec(test_fraction=test_fraction, seed=seed)
    check_setting("dedup_window_s", dedup_window_s, 0.0, math.inf, "[)")
    # each stage's input table is dropped once its output and counts exist,
    # so at most two tables are alive at a time
    ingested = ingest(input_path)
    reasons = Counter(rejection.reason for rejection in ingested.rejections)
    counts = {"rows_read": ingested.rows_read, "rejected": len(ingested.rejections), "ingested": len(ingested.records)}
    n_violations = audit_derived_columns(ingested.records)
    deduped = dedup_retransmissions(ingested.records, window_s=dedup_window_s)
    del ingested

    per_device: dict[str, dict] = {}
    for device, idx in _rows_by_device(deduped):
        # delivery ratio uses every received frame: the SF filter would punch
        # artificial counter gaps.  Dedup left each device's rows in time order.
        # Anomalies are counted once the screen has run.
        per_device[device] = {"rows": idx.size, "anomalies": 0, "pdr": pdr(deduped["f_count"][idx].tolist())}
    counts["after_dedup"] = len(deduped)
    sf_filtered = filter_sf(deduped)
    del deduped

    flags, constant = flag_anomalies(sf_filtered, if_config)
    flagged = Counter(sf_filtered["device_id"][flags].tolist())
    counts["after_sf_filter"] = len(sf_filtered)
    counts["anomalies_flagged"] = int(flags.sum())
    clean = sf_filtered.take(~flags)
    del sf_filtered
    for device, info in per_device.items():
        info["anomalies"] = flagged[device]
        if device in constant:
            info["constant_features"] = constant[device]

    train_index, test_index = split(clean, split_spec)
    counts |= {"clean": len(clean), "train": train_index.size, "test": test_index.size}

    effective_config = {
        "seed": seed,
        "contamination": contamination,
        "dedup_window_s": dedup_window_s,
        "excluded_sf": sorted(EXCLUDED_SF),
        "test_fraction": test_fraction,
        "features": list(FEATURE_FIELDS),
        "n_trees": if_config.n_trees,
        "subsample_size": if_config.subsample_size,
    }

    # each cleaned row is formatted once; train and test partition its lines
    lines = csv_lines(clean)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {
        "cleaned": lines,
        "train": [lines[i] for i in train_index.tolist()],
        "test": [lines[i] for i in test_index.tolist()],
    }
    for name, rows in outputs.items():
        write_records_csv(rows, out / f"{name}.csv")

    record = manifest(
        "pipeline run",
        effective_config,
        input=str(input_path),
        outputs={name: str(out / f"{name}.csv") for name in outputs},
        config=effective_config,
        counts=counts,
        rejections_by_reason=dict(sorted(reasons.items())),
        derived_audit_violations=n_violations,
        per_device=per_device,
    )
    write_json(out / "manifest.json", record)
    return PipelineResult(clean=clean, train_index=train_index, test_index=test_index, manifest=record)
