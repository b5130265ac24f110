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
from array import array
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain, count
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import InvalidConfigError, InvalidDataError, LorapropError
from .jsonio import atomic_write, manifest, write_json
from .link_budget import DEFAULT_LINK_BUDGET, LinkBudgetParams, esp, noise_power
from .metrics import pdr
from .records import (
    COLUMN_DTYPES,
    CSV_COLUMNS,
    FEATURE_FIELDS,
    ObservationTable,
    format_row,
    parse_row,
)

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
    """Body of a forked process: send ``task(share)``, or the exception that
    stopped it, back to the parent."""
    try:
        reply = ("ok", task(share))
    except BaseException as exc:  # the parent re-raises it
        reply = ("error", exc)
    conn.send(reply)
    conn.close()


def _fork_map(task, shares: list, what: str) -> list:
    """``[task(share) for share in shares]``: the parent runs the first share
    and a child forked for each other one runs that, from the memory it
    inherits.  A child's exception is raised again in the parent, and a child
    that dies without a result is a :class:`LorapropError`; on any error the
    children are stopped, and the parent waits for every child before it
    returns or raises.  With one share no process is started."""
    if len(shares) == 1:
        return [task(shares[0])]
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
        results = [task(shares[0])]
        for child, receive in children:
            try:
                status, reply = receive.recv()
            except EOFError:
                raise LorapropError(f"{what} process {child.pid} ended without a result") from None
            if status == "error":
                raise reply
            results.append(reply)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    return results


# ---------------------------------------------------------------------------
# Ingestion


@dataclass(frozen=True)
class Rejection:
    """One dropped input row: 1-based data line number plus a reason tag."""

    line: int
    reason: str


@dataclass
class IngestResult:
    records: ObservationTable
    rejections: list[Rejection]
    rows_read: int

    @property
    def rejection_rate(self) -> float:
        return len(self.rejections) / self.rows_read if self.rows_read else 0.0


def ingest(source: str | Path | TextIO) -> IngestResult:
    """Parse a CSV export into an observation table, dropping anything malformed.

    The header must match the canonical column list exactly.  Rows with
    missing cells, unparseable tokens, non-finite numbers, range
    violations or bytes that are not UTF-8, and records the ``csv`` module
    cannot read (a field over its size limit), are rejected and logged
    individually with a reason.  A file is read in byte ranges on the
    usable CPUs (see :func:`_ingest_file`), a stream in one piece; the
    result and the log do not depend on the number of CPUs.
    """
    if isinstance(source, (str, Path)):
        return _ingest_file(source)
    return _joined([_read_part(source, header=True, boundary=False)])


#: Parsed rows :func:`ingest` holds before moving them into its column buffers.
_INGEST_BLOCK = 4096
#: The fewest bytes of a file per range: a file under twice this is read in one piece.
_MIN_RANGE_BYTES = 1 << 20
#: The record of the line fed to the reader after a range.  No decoded input
#: holds a lone U+D800 (``surrogateescape`` makes only U+DC80..U+DCFF), so
#: the line comes back as this record only if the range ends where a record does.
_BOUNDARY = ["\ud800"]
_EPOCH, _MICROSECOND = datetime(1970, 1, 1), timedelta(microseconds=1)


@dataclass
class _Part:
    """The records of one byte range of a CSV file; line numbers count from
    its own first record."""

    columns: list[np.ndarray]  # one per CSV column, in order
    rejections: list[Rejection]
    notes: list[str]  # the message of each rejection, when DEBUG is logged
    rows: int  # blank lines left out
    records: int  # blank lines counted
    clean: bool  # it ends where a record ends


def _ingest_file(path: str | Path) -> IngestResult:
    """Read a CSV file in byte ranges, one per worker (:func:`_workers`) and
    at most one per ``_MIN_RANGE_BYTES``: the parent reads the first and a
    forked child each other one.  A range starts right after a ``\\n``, which is
    never part of a UTF-8 sequence and always ends a line; a file without
    one, such as a CR-only file, is one range.  If a quoted field runs over
    the end of a range, the parts are thrown away and the file is read
    again as one range."""
    size = os.path.getsize(path)
    workers = _workers(size // _MIN_RANGE_BYTES)
    starts = [0]
    if workers > 1:
        with open(path, "rb") as raw:
            for k in range(1, workers):
                raw.seek(size * k // workers)
                while (piece := raw.readline(_MIN_RANGE_BYTES)) and not piece.endswith(b"\n"):
                    pass
                if starts[-1] < raw.tell() < size:
                    starts.append(raw.tell())
    ranges = list(zip(starts, starts[1:] + [None]))
    parts = _fork_map(lambda bounds: _read_range(path, *bounds), ranges, "ingest")
    if all(part.clean for part in parts):
        return _joined(parts)
    del parts
    return _joined([_read_range(path, 0, None)])


class _ByteRange(io.RawIOBase):
    """The next ``size`` bytes of a binary file, as a raw stream."""

    def __init__(self, handle, size: int) -> None:
        self.handle, self.left = handle, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        got = self.handle.readinto(memoryview(buffer)[: self.left])
        self.left -= got
        return got


def _read_range(path: str | Path, start: int, end: int | None) -> _Part:
    """:func:`_read_part` of the bytes from ``start`` up to ``end`` (None:
    the end of the file), the header first if ``start`` is 0."""
    with open(path, "rb") as raw:
        raw.seek(start)
        source = raw if end is None else io.BufferedReader(_ByteRange(raw, end - start))
        # a byte that is not UTF-8 becomes a lone surrogate, which rejects its row;
        # a byte-order mark is skipped at the start of the file only
        encoding = "utf-8" if start else "utf-8-sig"
        with io.TextIOWrapper(source, encoding=encoding, errors="surrogateescape", newline="") as text:
            return _read_part(text, header=not start, boundary=end is not None)


def _read_part(stream: Iterable[str], header: bool, boundary: bool) -> _Part:
    """Parse the records of ``stream``, checking the header first if
    ``header``.  With ``boundary``, the part is clean only if a line of
    :data:`_BOUNDARY` fed after the stream comes back as a record of its
    own; a header that fails in a way that may involve that line leaves it
    unclean, so that reading the file in one piece names the whole fault."""
    reader = csv.reader(chain(stream, [_BOUNDARY[0] + "\n"]) if boundary else stream)
    if header:
        try:
            names = next(reader)
        except StopIteration:
            raise InvalidDataError("malformed header: empty input") from None
        except csv.Error:
            if boundary:
                return _Part([], [], [], 0, 0, clean=False)
            raise
        if tuple(names) != CSV_COLUMNS:
            if boundary and _BOUNDARY[0] in "".join(names):
                return _Part([], [], [], 0, 0, clean=False)
            raise InvalidDataError(f"malformed header: expected {list(CSV_COLUMNS)}, got {names}")
    # one buffer per column, typed arrays for all but the ids (times as
    # microseconds since the epoch); parsed rows wait in a bounded block,
    # moved in column by column
    buffers = [[] if d.kind == "U" else array("q" if d.kind == "M" else d.char)
               for d in COLUMN_DTYPES.values()]
    block: list[tuple] = []

    def flush() -> None:
        times, devices, *numbers = zip(*block)
        buffers[0].fromlist([(when - _EPOCH) // _MICROSECOND for when in times])
        buffers[1].extend(devices)
        for buffer, column in zip(buffers[2:], numbers):
            buffer.fromlist(list(column))
        block.clear()

    rejections: list[Rejection] = []
    # the parent logs them once every part is read, in line order
    notes: list[str] | None = [] if log.isEnabledFor(logging.DEBUG) else None
    rows = 0
    clean = not boundary
    for line in count(1):
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            # the reader drops the rest of the physical line and goes on with the next
            rows += 1
            reason = "oversized-field" if "field limit" in str(exc) else "bad-csv"
            rejections.append(Rejection(line=line, reason=reason))
            if notes is not None:
                notes.append(str(exc))
            continue
        if not row:
            continue
        if row == _BOUNDARY:
            clean = True
            break
        rows += 1
        try:
            block.append(parse_row(row))
        except LorapropError as exc:
            reason = str(exc).split(":", 1)[0]
            rejections.append(Rejection(line=line, reason=reason))
            if notes is not None:
                notes.append(str(exc))
            continue
        if len(block) == _INGEST_BLOCK:
            flush()
    if block:
        flush()
    # exact-size copies, a column at a time, so no buffer's growth slack is retained
    for k, dtype in enumerate(COLUMN_DTYPES.values()):
        buffers[k] = np.array(buffers[k], dtype)
    return _Part(buffers, rejections, notes or [], rows, line - 1, clean)


def _joined(parts: list[_Part]) -> IngestResult:
    """The ingest result of a file's parts, in file order: line numbers
    count on from part to part, and each rejection is logged at DEBUG."""
    rejections: list[Rejection] = []
    offset = rows = 0
    for part in parts:
        shifted = [Rejection(r.line + offset, r.reason) for r in part.rejections] if offset else part.rejections
        for rejection, note in zip(shifted, part.notes):
            log.debug("rejected row %d: %s", rejection.line, note)
        rejections += shifted
        offset += part.records
        rows += part.rows
    columns = {}
    for name in CSV_COLUMNS:
        # a column at a time, each part's copy dropped once it is joined
        pieces = [part.columns.pop(0) for part in parts]
        columns[name] = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    records = ObservationTable(columns)
    result = IngestResult(records=records, rejections=rejections, rows_read=rows)
    log.info(
        "ingested %d rows, rejected %d (%.4f%%)",
        len(records), len(rejections), 100.0 * result.rejection_rate,
    )
    return result


@dataclass(frozen=True)
class DerivedViolation:
    index: int
    column: str
    expected: float
    actual: float


def audit_derived_columns(
    records: ObservationTable,
    params: LinkBudgetParams = DEFAULT_LINK_BUDGET,
    tolerance_db: float = 0.01,
) -> list[DerivedViolation]:
    """Cross-check the derived columns against their defining identities.

    Violations are reported and logged, never repaired: a mismatch means the
    exporting system disagrees with the documented derivation.
    """
    violations: list[DerivedViolation] = []
    offset = params.link_offset_db
    rows = records.rows(("rssi", "snr", "exp_pl", "esp", "n_power"))
    for i, (rssi, snr, exp_pl_db, esp_dbm, n_power_dbm) in enumerate(rows):
        checks = (
            ("exp_pl", offset - rssi, exp_pl_db),
            ("esp", esp(rssi, snr), esp_dbm),
            ("n_power", noise_power(rssi, snr), n_power_dbm),
        )
        for column, expected, actual in checks:
            if abs(expected - actual) >= tolerance_db:
                violations.append(DerivedViolation(i, column, expected, actual))
    if violations:
        log.warning("derived-column audit: %d violations", len(violations))
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


def filter_sf(
    records: ObservationTable,
    excluded: frozenset[int] | set[int] = frozenset({11, 12}),
) -> ObservationTable:
    """Remove rows whose spreading factor is in ``excluded``."""
    return records.take(~np.isin(records["SF"], sorted(excluded)))


# ---------------------------------------------------------------------------
# Feature scaling


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature mean/spread captured from a reference subset."""

    features: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.mean) / self.std


def feature_matrix(
    records: ObservationTable, features: Sequence[str] = FEATURE_FIELDS
) -> np.ndarray:
    """N x F float matrix of the requested columns, in the given order.

    It is C-contiguous: the column means and spreads the anomaly screen
    depends on are summed in that layout's order.
    """
    matrix = np.empty((len(records), len(features)))
    for k, name in enumerate(features):
        matrix[:, k] = records[name]
    return matrix


def standardize(
    records: ObservationTable, features: Sequence[str] = FEATURE_FIELDS
) -> tuple[np.ndarray, FeatureScaler]:
    """Z-score the feature columns; returns the scaled matrix and the
    transform parameters for reuse on held-out data.

    A constant feature is a ``zero-variance`` error; so is, under its own
    reason, a varying one whose spread is not finite and positive (a sum
    overflows or the squares underflow).
    """
    if len(records) < 2:
        raise InvalidDataError("standardize needs at least two records")
    raw = feature_matrix(records, features)
    flat = [name for name, low, high in zip(features, raw.min(axis=0), raw.max(axis=0)) if low == high]
    if flat:
        raise InvalidDataError(f"zero-variance feature(s): {flat}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
    unscalable = [name for name, value in zip(features, std.tolist()) if not 0.0 < value < math.inf]
    if unscalable:
        raise InvalidDataError(f"feature(s) {unscalable} vary but their spread overflows or underflows")
    scaler = FeatureScaler(features=tuple(features), mean=mean, std=std)
    return scaler.transform(raw), scaler


# ---------------------------------------------------------------------------
# Isolation forest (from scratch)


@dataclass(frozen=True)
class IsolationForestConfig:
    n_trees: int = 100
    subsample_size: int = 256
    contamination: float = 0.01
    seed: int = 42
    features: tuple[str, ...] = FEATURE_FIELDS

    def __post_init__(self) -> None:
        if not 0.0 < self.contamination < 0.5:
            raise InvalidConfigError("contamination must lie in (0, 0.5)")
        if self.n_trees < 1:
            raise InvalidConfigError("n_trees must be >= 1")
        if self.subsample_size < 2:
            raise InvalidConfigError("subsample_size must be >= 2")


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


@dataclass(frozen=True)
class AnomalyResult:
    flags: np.ndarray
    scores: np.ndarray


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
) -> AnomalyResult:
    """Score every row and flag exactly ``round(contamination * N)`` of them.

    The cutoff is an exact score quantile (ties broken by row order), which
    keeps the flagged count reproducible run-to-run.
    """
    model = fit_isolation_forest(matrix, config)
    scores = model.scores(matrix)
    n = scores.size
    k = int(round(config.contamination * n))
    flags = np.zeros(n, dtype=bool)
    if k > 0:
        order = np.argsort(-scores, kind="stable")
        flags[order[:k]] = True
    return AnomalyResult(flags=flags, scores=scores)


def _rows_by_device(records: ObservationTable) -> list[tuple[str, np.ndarray]]:
    """``(device, row indices in table order)`` per device, devices sorted."""
    devices, codes = np.unique(records["device_id"], return_inverse=True)
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=devices.size))
    return list(zip(devices.tolist(), np.split(order, ends[:-1])))


def _screen_device(rows: ObservationTable, device: str, config: IsolationForestConfig):
    """Screen one device's rows (two or more): its flags, or None when it is
    passed through, its constant features and the warnings to log about it
    as ``(format, args)`` pairs."""
    notes = []
    varying = [name for name in config.features if rows[name].min() < rows[name].max()]
    constant = [name for name in config.features if name not in varying]
    if constant:
        notes.append(("device %s has constant feature(s) %s; screening on the others", (device, constant)))
    with np.errstate(over="ignore", invalid="ignore"):
        spread = feature_matrix(rows, varying).std(axis=0).tolist()
    unscalable = [name for name, value in zip(varying, spread) if not 0.0 < value < math.inf]
    if unscalable:
        varying = [name for name in varying if name not in unscalable]
        notes.append(("device %s has feature(s) %s that cannot be standardised; screening on the others", (device, unscalable)))
    flags = None
    if varying:
        scaled, _ = standardize(rows, varying)
        flags = isolation_forest(scaled, config).flags
    return flags, constant, notes


def _screen_share(records: ObservationTable, share: list, config: IsolationForestConfig) -> list:
    """:func:`_screen_device` over each ``(device, row indices)`` of a share."""
    return [_screen_device(records.take(idx), device, config) for device, idx in share]


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


def _screen_devices(records: ObservationTable, devices: list, config: IsolationForestConfig) -> dict:
    """:func:`_screen_device` results by device, the devices spread over the
    workers (:func:`_fork_map`)."""
    shares = _shares(devices, _workers(len(devices)), config.subsample_size)
    results = _fork_map(lambda share: _screen_share(records, share, config), shares, "anomaly screening")
    return dict(zip((device for device, _ in chain.from_iterable(shares)), chain.from_iterable(results)))


def flag_anomalies(
    records: ObservationTable, config: IsolationForestConfig
) -> tuple[np.ndarray, dict[str, list[str]]]:
    """Per-device anomaly flags over all rows, aligned with table order, and
    the constant feature columns of each device that has any.

    Each device gets its own scaler and forest so one node's operating
    pattern cannot mask another's outliers.  A device is screened on its
    non-constant features only; one with fewer than two rows or no varying
    feature is passed through unflagged, and one whose spread is not finite
    and positive (a sum overflows or squares underflow) is left out the same way.
    Devices are screened in parallel (see :func:`_screen_devices`); flags
    and warnings do not depend on the number of CPUs.
    """
    flags = np.zeros(len(records), dtype=bool)
    constant: dict[str, list[str]] = {}
    devices = _rows_by_device(records)
    results = _screen_devices(records, [(device, idx) for device, idx in devices if idx.size >= 2], config)
    for device, idx in devices:
        if idx.size < 2:
            log.warning("device %s has %d record(s); skipping anomaly screen", device, idx.size)
            continue
        device_flags, device_constant, notes = results[device]
        for message, args in notes:
            log.warning(message, *args)
        if device_constant:
            constant[device] = device_constant
        if device_flags is not None:
            flags[idx] = device_flags
    return flags, constant


# ---------------------------------------------------------------------------
# Splitting


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    folds: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidConfigError("test_fraction must lie in (0, 1)")
        if self.folds < 2:
            raise InvalidConfigError("folds must be >= 2")


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


def kfold(
    records: ObservationTable, folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold index partition: ``[(train_idx, validation_idx), ...]``.

    Validation sets are disjoint, cover every record exactly once and differ
    in size by at most one.
    """
    if folds < 2:
        raise InvalidConfigError("folds must be >= 2")
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
    """The cleaned table and the sorted row indices of its train/test split.

    ``train`` and ``test`` are selected from ``clean`` each time they are read.
    """

    clean: ObservationTable
    train_index: np.ndarray
    test_index: np.ndarray
    manifest: dict

    @property
    def train(self) -> ObservationTable:
        return self.clean.take(self.train_index)

    @property
    def test(self) -> ObservationTable:
        return self.clean.take(self.test_index)


def csv_lines(records: ObservationTable) -> list[str]:
    """One ``\\n``-terminated CSV line per row, no header, in the canonical
    column order and float formatting."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        map(format_row, records.rows())
    )
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
    excluded_sf: frozenset[int] | set[int] = frozenset({11, 12}),
    test_fraction: float = 0.2,
    link_budget: LinkBudgetParams = DEFAULT_LINK_BUDGET,
) -> PipelineResult:
    """Run every cleaning stage and write the cleaned/train/test CSVs plus a
    machine-readable manifest into ``out_dir``.

    All randomness derives from ``seed``; rerunning with identical inputs
    produces byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # each stage's input table is dropped once its output and counts exist,
    # so at most two tables are alive at a time
    ingested = ingest(input_path)
    reasons = Counter(rejection.reason for rejection in ingested.rejections)
    counts = {
        "rows_read": ingested.rows_read,
        "rejected": len(ingested.rejections),
        "ingested": len(ingested.records),
    }
    n_violations = len(audit_derived_columns(ingested.records, link_budget))
    deduped = dedup_retransmissions(ingested.records, window_s=dedup_window_s)
    del ingested

    per_device: dict[str, dict] = {}
    for device, idx in _rows_by_device(deduped):
        # delivery ratio uses every received frame: the SF filter would punch
        # artificial counter gaps.  Dedup left each device's rows in time order.
        # Anomalies are counted once the screen has run.
        per_device[device] = {
            "rows": idx.size,
            "anomalies": 0,
            "pdr": pdr(deduped["f_count"][idx].tolist()),
        }
    counts["after_dedup"] = len(deduped)
    sf_filtered = filter_sf(deduped, excluded=excluded_sf)
    del deduped

    if_config = IsolationForestConfig(contamination=contamination, seed=seed)
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

    train_index, test_index = split(clean, SplitSpec(test_fraction=test_fraction, seed=seed))
    counts |= {"clean": len(clean), "train": train_index.size, "test": test_index.size}

    effective_config = {
        "seed": seed,
        "contamination": contamination,
        "dedup_window_s": dedup_window_s,
        "excluded_sf": sorted(excluded_sf),
        "test_fraction": test_fraction,
        "features": list(if_config.features),
        "n_trees": if_config.n_trees,
        "subsample_size": if_config.subsample_size,
    }

    # each cleaned row is formatted once; train and test partition its lines
    lines = csv_lines(clean)
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
