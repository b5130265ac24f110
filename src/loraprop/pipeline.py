"""Dataset ingestion and the cleaning/splitting procedure.

Stage order is fixed: ingest (with type/range/finiteness validation) ->
per-device retransmission dedup -> spreading-factor exclusion -> per-device
anomaly screening -> train/test split.  Every stage is deterministic given
its seed, and each is idempotent on its own output.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .errors import InvalidConfigError, InvalidDataError, LorapropError
from .jsonio import config_digest, write_json
from .link_budget import DEFAULT_LINK_BUDGET, LinkBudgetParams, esp, noise_power
from .metrics import pdr
from .records import (
    CSV_COLUMNS,
    FEATURE_FIELDS,
    ObservationRecord,
    field_value,
    format_row,
    parse_row,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Ingestion


@dataclass(frozen=True)
class Rejection:
    """One dropped input row: 1-based data line number plus a reason tag."""

    line: int
    reason: str


@dataclass
class IngestResult:
    records: list[ObservationRecord]
    rejections: list[Rejection]
    rows_read: int

    @property
    def rejection_rate(self) -> float:
        return len(self.rejections) / self.rows_read if self.rows_read else 0.0


def ingest(source: str | Path | TextIO) -> IngestResult:
    """Parse a CSV export into typed records, dropping anything malformed.

    The header must match the canonical column list exactly.  Rows with
    missing cells, unparseable tokens, non-finite numbers or range
    violations are rejected and logged individually with a reason.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return _ingest_stream(handle)
    return _ingest_stream(source)


def _ingest_stream(stream: TextIO) -> IngestResult:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidDataError("malformed header: empty input") from None
    if tuple(header) != CSV_COLUMNS:
        raise InvalidDataError(
            f"malformed header: expected {list(CSV_COLUMNS)}, got {header}"
        )
    records: list[ObservationRecord] = []
    rejections: list[Rejection] = []
    rows = 0
    for line, row in enumerate(reader, start=1):
        if not row:
            continue
        rows += 1
        try:
            records.append(parse_row(row))
        except LorapropError as exc:
            reason = str(exc).split(":", 1)[0]
            rejections.append(Rejection(line=line, reason=reason))
            log.debug("rejected row %d: %s", line, exc)
    log.info(
        "ingested %d rows, rejected %d (%.4f%%)",
        len(records),
        len(rejections),
        100.0 * (len(rejections) / rows if rows else 0.0),
    )
    return IngestResult(records=records, rejections=rejections, rows_read=rows)


@dataclass(frozen=True)
class DerivedViolation:
    index: int
    column: str
    expected: float
    actual: float


def audit_derived_columns(
    records: Sequence[ObservationRecord],
    params: LinkBudgetParams = DEFAULT_LINK_BUDGET,
    tolerance_db: float = 0.01,
) -> list[DerivedViolation]:
    """Cross-check the derived columns against their defining identities.

    Violations are reported and logged, never repaired: a mismatch means the
    exporting system disagrees with the documented derivation.
    """
    violations: list[DerivedViolation] = []
    offset = params.link_offset_db
    for i, r in enumerate(records):
        checks = (
            ("exp_pl", offset - r.rssi_dbm, r.exp_pl_db),
            ("esp", esp(r.rssi_dbm, r.snr_db), r.esp_dbm),
            ("n_power", noise_power(r.rssi_dbm, r.snr_db), r.n_power_dbm),
        )
        for column, expected, actual in checks:
            if abs(expected - actual) >= tolerance_db:
                violations.append(DerivedViolation(i, column, expected, actual))
    if violations:
        log.warning("derived-column audit: %d violations", len(violations))
    return violations


# ---------------------------------------------------------------------------
# Cleaning stages


def dedup_retransmissions(
    records: Iterable[ObservationRecord], window_s: float = 2.0
) -> list[ObservationRecord]:
    """Drop per-device repeats of an unchanged frame counter within a short
    window, keeping the earliest arrival (the original transmission).

    Records are first brought into canonical (device, time) order, so the
    result does not depend on input ordering.  Time deltas are raw wall-clock
    differences.
    """
    ordered = sorted(records, key=lambda r: (r.device_id, r.time, r.f_count))
    kept: list[ObservationRecord] = []
    last_per_device: dict[str, ObservationRecord] = {}
    for record in ordered:
        anchor = last_per_device.get(record.device_id)
        if (
            anchor is not None
            and record.f_count == anchor.f_count
            and (record.time - anchor.time).total_seconds() <= window_s
        ):
            continue
        kept.append(record)
        last_per_device[record.device_id] = record
    return kept


def filter_sf(
    records: Iterable[ObservationRecord],
    excluded: frozenset[int] | set[int] = frozenset({11, 12}),
) -> list[ObservationRecord]:
    """Remove records whose spreading factor is in ``excluded``."""
    return [r for r in records if r.sf not in excluded]


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
    records: Sequence[ObservationRecord], features: Sequence[str] = FEATURE_FIELDS
) -> np.ndarray:
    """N x F matrix of the requested columns, in the given order."""
    return np.array(
        [[float(field_value(r, name)) for name in features] for r in records]
    )


def standardize(
    records: Sequence[ObservationRecord], features: Sequence[str] = FEATURE_FIELDS
) -> tuple[np.ndarray, FeatureScaler]:
    """Z-score the feature columns; returns the scaled matrix and the
    transform parameters for reuse on held-out data."""
    if len(records) < 2:
        raise InvalidDataError("standardize needs at least two records")
    raw = feature_matrix(records, features)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    flat = np.nonzero(std == 0)[0]
    if flat.size:
        names = [features[i] for i in flat]
        raise InvalidDataError(f"zero-variance feature(s): {names}")
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
class TreeNode:
    """Isolation tree node; a leaf has ``feature == -1`` and records the
    number of training points that ended up in it."""

    size: int
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


_EULER_GAMMA = 0.5772156649015329


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search depth c(n) of a binary search tree."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1.0) + _EULER_GAMMA) - 2.0 * (n - 1.0) / n


def _build_tree(
    data: np.ndarray, rng: np.random.Generator, depth: int, max_depth: int
) -> TreeNode:
    n = data.shape[0]
    if n <= 1 or depth >= max_depth:
        return TreeNode(size=n)
    lows = data.min(axis=0)
    highs = data.max(axis=0)
    splittable = np.nonzero(highs > lows)[0]
    if splittable.size == 0:
        return TreeNode(size=n)
    feature = int(splittable[rng.integers(splittable.size)])
    threshold = float(rng.uniform(lows[feature], highs[feature]))
    mask = data[:, feature] < threshold
    return TreeNode(
        size=n,
        feature=feature,
        threshold=threshold,
        left=_build_tree(data[mask], rng, depth + 1, max_depth),
        right=_build_tree(data[~mask], rng, depth + 1, max_depth),
    )


@dataclass(frozen=True)
class IsolationForestModel:
    trees: tuple[TreeNode, ...]
    subsample_size: int

    def path_lengths(self, matrix: np.ndarray) -> np.ndarray:
        """Mean isolation depth per row, leaf sizes adjusted by c(size)."""
        matrix = np.asarray(matrix, dtype=float)
        totals = np.zeros(matrix.shape[0])
        for root in self.trees:
            depths = np.empty(matrix.shape[0])
            stack: list[tuple[TreeNode, np.ndarray, int]] = [
                (root, np.arange(matrix.shape[0]), 0)
            ]
            while stack:
                node, idx, depth = stack.pop()
                if idx.size == 0:
                    continue
                if node.is_leaf:
                    depths[idx] = depth + average_path_length(node.size)
                    continue
                mask = matrix[idx, node.feature] < node.threshold
                stack.append((node.left, idx[mask], depth + 1))
                stack.append((node.right, idx[~mask], depth + 1))
            totals += depths
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
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise InvalidDataError("need a non-empty 2-D matrix")
    n = matrix.shape[0]
    rng = np.random.default_rng(config.seed)
    psi = min(config.subsample_size, n)
    max_depth = math.ceil(math.log2(psi)) if psi > 1 else 0
    trees = []
    for _ in range(config.n_trees):
        subsample = matrix[rng.choice(n, size=psi, replace=False)]
        trees.append(_build_tree(subsample, rng, 0, max_depth))
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


def flag_anomalies(
    records: Sequence[ObservationRecord], config: IsolationForestConfig
) -> np.ndarray:
    """Per-device anomaly flags over all records, aligned with input order.

    Each device gets its own scaler and forest so one node's operating
    pattern cannot mask another's outliers.  Devices with fewer than two
    records are passed through unflagged.
    """
    flags = np.zeros(len(records), dtype=bool)
    by_device: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_device.setdefault(record.device_id, []).append(i)
    for device in sorted(by_device):
        idx = by_device[device]
        if len(idx) < 2:
            log.warning("device %s has %d record(s); skipping anomaly screen", device, len(idx))
            continue
        subset = [records[i] for i in idx]
        scaled, _ = standardize(subset, config.features)
        result = isolation_forest(scaled, config)
        flags[np.asarray(idx)] = result.flags
    return flags


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


def split(
    records: Sequence[ObservationRecord], spec: SplitSpec
) -> tuple[list[ObservationRecord], list[ObservationRecord]]:
    """Uniform random train/test partition, deterministic per seed."""
    if len(records) < 2:
        raise InvalidDataError("need at least two records to split")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(records))
    n_test = int(round(spec.test_fraction * len(records)))
    test_idx = set(order[:n_test].tolist())
    train = [r for i, r in enumerate(records) if i not in test_idx]
    test = [r for i, r in enumerate(records) if i in test_idx]
    return train, test


def daily_distribution(records: Sequence[ObservationRecord]) -> dict[str, float]:
    """Percentage of records per calendar day (ISO date -> share in %)."""
    counts: dict[str, int] = {}
    for record in records:
        day = record.time.date().isoformat()
        counts[day] = counts.get(day, 0) + 1
    total = len(records)
    return {day: 100.0 * counts[day] / total for day in sorted(counts)}


def kfold(
    records: Sequence[ObservationRecord], folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold index partition: ``[(train_idx, validation_idx), ...]``.

    Validation sets are disjoint, cover every record exactly once and differ
    in size by at most one.
    """
    if folds < 2:
        raise InvalidConfigError("folds must be >= 2")
    if len(records) < folds:
        raise InvalidDataError(
            f"too few records ({len(records)}) for {folds} folds"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    parts = np.array_split(order, folds)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for i, validation in enumerate(parts):
        train = np.concatenate([parts[j] for j in range(folds) if j != i])
        out.append((np.sort(train), np.sort(validation)))
    return out


# ---------------------------------------------------------------------------
# End-to-end run


@dataclass
class PipelineResult:
    clean: list[ObservationRecord]
    train: list[ObservationRecord]
    test: list[ObservationRecord]
    manifest: dict


def write_records_csv(records: Sequence[ObservationRecord], path: str | Path) -> None:
    """Write records in the canonical column order and float formatting."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(format_row(record))


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

    ingested = ingest(input_path)
    violations = audit_derived_columns(ingested.records, link_budget)
    deduped = dedup_retransmissions(ingested.records, window_s=dedup_window_s)
    sf_filtered = filter_sf(deduped, excluded=excluded_sf)

    if_config = IsolationForestConfig(contamination=contamination, seed=seed)
    flags = flag_anomalies(sf_filtered, if_config)
    clean = [r for r, bad in zip(sf_filtered, flags) if not bad]

    split_spec = SplitSpec(test_fraction=test_fraction, seed=seed)
    train, test = split(clean, split_spec)

    per_device: dict[str, dict] = {}
    for device in sorted({r.device_id for r in deduped}):
        # delivery ratio uses every received frame: the SF filter would punch
        # artificial counter gaps
        received = [r for r in deduped if r.device_id == device]
        counters = [r.f_count for r in sorted(received, key=lambda r: r.time)]
        flagged = int(
            sum(1 for r, bad in zip(sf_filtered, flags) if bad and r.device_id == device)
        )
        per_device[device] = {
            "rows": len(received),
            "anomalies": flagged,
            "pdr": pdr(counters) if counters else None,
        }

    reasons: dict[str, int] = {}
    for rejection in ingested.rejections:
        reasons[rejection.reason] = reasons.get(rejection.reason, 0) + 1

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

    cleaned_path = out / "cleaned.csv"
    train_path = out / "train.csv"
    test_path = out / "test.csv"
    write_records_csv(clean, cleaned_path)
    write_records_csv(train, train_path)
    write_records_csv(test, test_path)

    manifest = {
        "command": "pipeline run",
        "tool_version": __version__,
        "input": str(input_path),
        "outputs": {
            "cleaned": str(cleaned_path),
            "train": str(train_path),
            "test": str(test_path),
        },
        "config": effective_config,
        "config_digest": config_digest(effective_config),
        "counts": {
            "rows_read": ingested.rows_read,
            "rejected": len(ingested.rejections),
            "ingested": len(ingested.records),
            "after_dedup": len(deduped),
            "after_sf_filter": len(sf_filtered),
            "anomalies_flagged": int(flags.sum()),
            "clean": len(clean),
            "train": len(train),
            "test": len(test),
        },
        "rejections_by_reason": dict(sorted(reasons.items())),
        "derived_audit_violations": len(violations),
        "per_device": per_device,
    }
    write_json(out / "manifest.json", manifest)
    return PipelineResult(clean=clean, train=train, test=test, manifest=manifest)
