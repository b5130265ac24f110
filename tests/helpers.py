"""Shared test fixtures: synthetic observation sets with known ground truth.

The generator produces rows whose derived columns satisfy the link-budget
identities exactly, whose path loss comes from a known coefficient vector
plus seeded Gaussian shadowing, and whose frame counters carry controlled
gaps and injected retransmission duplicates.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from loraprop.link_budget import DEFAULT_LINK_BUDGET, esp, noise_power
from loraprop.lora_phy import RadioConfig, time_on_air
from loraprop.propagation import ModelVariant, PathLossModel, predict
from loraprop.records import _INT_COLUMNS, CSV_COLUMNS, ObservationTable

#: Ground-truth extended model used by synthetic datasets (arbitrary but
#: plausible magnitudes; negative covariate slopes like the fitted ones).
TRUE_EP_MODEL = PathLossModel(
    ModelVariant.MW_EP,
    # intercept, exponent, brick, wood, temperature, humidity, pressure, pm25, co2, snr
    (6.0, 3.1, 8.0, 3.0, -0.006, -0.07, -0.012, -0.15, -0.0025, -2.0),
    shadowing_sigma_db=8.0,
)

#: Distance / wall layout per synthetic device.
PLACEMENTS = (
    ("dev0", 10.0, 0, 0),
    ("dev1", 8.0, 1, 0),
    ("dev2", 25.0, 0, 2),
    ("dev3", 18.0, 1, 2),
    ("dev4", 37.0, 0, 5),
)

_CHANNELS = (867.1, 867.3, 867.5, 867.7, 867.9, 868.1, 868.3, 868.5)
_START = datetime(2024, 1, 1, 0, 0, 0)

#: One valid row, keyed by CSV column name.  Its derived columns meet the
#: link-budget identities ``audit_derived_columns`` checks, to 1e-4 dB.
DEFAULT_ROW = dict(
    time=_START,
    device_id="dev0",
    co2=550.0,
    humidity=38.0,
    pm25=2.0,
    pressure=323.0,
    temperature=21.0,
    rssi=-75.0,
    snr=8.0,
    SF=7,
    frequency=868.1,
    f_count=0,
    p_count=0,
    toa=0.046336,
    distance=10.0,
    c_walls=0,
    w_walls=0,
    exp_pl=92.26,
    n_power=-83.6389,
    esp=-75.6389,
)


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple, range, np.ndarray))


def make_table(**columns) -> ObservationTable:
    """Rows with :data:`DEFAULT_ROW` values.  Each keyword, a CSV column
    name, sets that column to a sequence of values or to one value for every
    row; the longest sequence sets the row count (one row without any)."""
    n = max((len(v) for v in columns.values() if _is_sequence(v)), default=1)
    row = DEFAULT_ROW | columns
    return ObservationTable({k: v if _is_sequence(v) else [v] * n for k, v in row.items()})


def table_from_rows(rows: list[dict]) -> ObservationTable:
    """Table of row dicts keyed by CSV column name, in list order."""
    return ObservationTable({name: [row[name] for row in rows] for name in CSV_COLUMNS})


def replace_columns(table: ObservationTable, **columns) -> ObservationTable:
    """Copy of ``table`` with the named columns replaced."""
    return ObservationTable({name: columns.get(name, table[name]) for name in CSV_COLUMNS})


def concat(*tables: ObservationTable) -> ObservationTable:
    return ObservationTable(
        {name: np.concatenate([t[name] for t in tables]) for name in CSV_COLUMNS}
    )


def table_rows(table: ObservationTable, columns: Sequence[str] = CSV_COLUMNS) -> Iterator[tuple]:
    """Rows as tuples of Python values (``datetime``, ``str``, ``int``,
    ``float``) of ``columns``, converted a block of 4,096 rows at a time so a
    large table is never held as Python objects all at once."""
    arrays = [table[name] for name in columns]
    for start in range(0, len(table), 4096):
        yield from zip(*(a[start : start + 4096].tolist() for a in arrays))


def rows_of(table: ObservationTable) -> list[tuple]:
    """Every row as a tuple of Python values, for exact comparisons."""
    return list(table_rows(table))


@dataclass
class SynthDataset:
    records: ObservationTable          # clean + duplicates, (device, time) order
    clean: ObservationTable
    duplicates: ObservationTable
    model: PathLossModel
    sigma_db: float


def _key(row: dict) -> tuple:
    return (row["device_id"], row["time"], row["f_count"])


def reference_format_row(values) -> list[str]:
    """The per-column ``records.format_row`` that the single-expression one
    replaced, kept verbatim as the reference for its cells."""
    cells: list[str] = []
    for column, value in zip(CSV_COLUMNS, values):
        if column == "time":
            # identical to the declared format for whole seconds, and keeps
            # sub-second precision when a row carries it
            cells.append(value.isoformat(sep=" "))
        elif column == "device_id":
            cells.append(value)
        elif column in _INT_COLUMNS:
            cells.append(str(value))
        else:
            cells.append(repr(value))
    return cells


def write_reference_csv(table: ObservationTable, path: Path) -> None:
    """A table written row by row with :func:`reference_format_row`, the way
    ``write_records_csv`` wrote one before it took prepared lines."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in table_rows(table):
            writer.writerow(reference_format_row(row))


def record_keys(table: ObservationTable) -> set[tuple]:
    return set(table_rows(table, ("device_id", "time", "f_count")))


def synth_dataset(
    rows_per_device: int = 2000,
    seed: int = 7,
    sigma_db: float = 8.0,
    duplicates_per_device: int = 5,
    sf_cycle: tuple[int, ...] = (7, 8, 9, 10),
    model: PathLossModel = TRUE_EP_MODEL,
    placements=PLACEMENTS,
) -> SynthDataset:
    """Build a dataset with known coefficients and a known duplicate set.

    Duplicates repeat an existing frame (same counter) 1 s later, so the
    retransmission rule and only that rule removes them.  Frame counters
    skip one value with 10% probability to leave realistic delivery gaps.
    ``model`` must be an extended-variant model.
    """
    rng = np.random.default_rng(seed)
    clean: list[dict] = []
    duplicates: list[dict] = []
    offset = DEFAULT_LINK_BUDGET.link_offset_db

    for device, distance, brick, wood in placements:
        f_count = int(rng.integers(0, 50))
        per_device: list[dict] = []
        for i in range(rows_per_device):
            sf = sf_cycle[i % len(sf_cycle)]
            row = dict(
                DEFAULT_ROW,
                temperature=float(np.clip(rng.normal(21.0, 2.5), -5.0, 45.0)),
                humidity=float(np.clip(rng.normal(38.0, 6.0), 5.0, 95.0)),
                pressure=float(rng.normal(323.0, 10.0)),
                pm25=float(abs(rng.normal(2.0, 2.5))),
                co2=float(np.clip(rng.normal(550.0, 130.0), 360.0, 2200.0)),
            )
            snr = float(np.clip(rng.normal(8.0, 5.0), -24.0, 19.0))
            freq = _CHANNELS[int(rng.integers(len(_CHANNELS)))]
            row.update(
                time=_START + timedelta(seconds=60 * i),
                device_id=device,
                SF=sf,
                frequency=freq,
                snr=snr,
                distance=distance,
                c_walls=brick,
                w_walls=wood,
                f_count=f_count,
                p_count=i,
            )
            true_pl = predict(model, row)
            exp_pl = true_pl + float(rng.normal(0.0, sigma_db)) if sigma_db > 0 else true_pl
            rssi = offset - exp_pl
            cfg = RadioConfig(sf=sf, bw_hz=125_000.0, payload_bytes=18, implicit_header=True)
            row.update(
                rssi=rssi,
                exp_pl=exp_pl,
                esp=esp(rssi, snr),
                n_power=noise_power(rssi, snr),
                toa=time_on_air(cfg),
            )
            per_device.append(row)
            f_count += 2 if rng.random() < 0.1 else 1

        dup_positions = rng.choice(rows_per_device, size=duplicates_per_device, replace=False)
        for position in sorted(int(p) for p in dup_positions):
            base = per_device[position]
            retrans_pl = predict(model, base) + (
                float(rng.normal(0.0, sigma_db)) if sigma_db > 0 else 0.0
            )
            rssi = offset - retrans_pl
            duplicates.append(
                dict(
                    base,
                    time=base["time"] + timedelta(seconds=1),
                    rssi=rssi,
                    exp_pl=retrans_pl,
                    esp=esp(rssi, base["snr"]),
                    n_power=noise_power(rssi, base["snr"]),
                )
            )
        clean.extend(per_device)

    merged = sorted(clean + duplicates, key=_key)
    return SynthDataset(
        records=table_from_rows(merged),
        clean=table_from_rows(clean),
        duplicates=table_from_rows(duplicates),
        model=model,
        sigma_db=sigma_db,
    )


def mw_observations(
    n: int = 500,
    seed: int = 11,
    sigma_db: float = 0.0,
    coeffs: tuple[float, float, float, float] = (40.0, 3.5, 9.0, 3.0),
    distance_range: tuple[float, float] = (1.0, 40.0),
) -> tuple[ObservationTable, np.ndarray]:
    """Structural-variant observations at random distances and wall counts.

    Returns the table and the true coefficient vector; the measured path
    loss is the exact model value plus optional Gaussian shadowing.
    """
    rng = np.random.default_rng(seed)
    beta0, exponent, brick_loss, wood_loss = coeffs
    rows = []
    lo, hi = distance_range
    for i in range(n):
        distance = float(rng.uniform(lo, hi))
        brick = int(rng.integers(0, 3))
        wood = int(rng.integers(0, 6))
        pl = (
            beta0
            + 10.0 * exponent * np.log10(distance)
            + brick * brick_loss
            + wood * wood_loss
        )
        if sigma_db > 0:
            pl += float(rng.normal(0.0, sigma_db))
        rows.append(
            dict(
                DEFAULT_ROW,
                time=_START + timedelta(seconds=60 * i),
                f_count=i,
                p_count=i,
                distance=distance,
                c_walls=brick,
                w_walls=wood,
                exp_pl=float(pl),
            )
        )
    return table_from_rows(rows), np.array(coeffs)


def use_cpus(monkeypatch, n):
    """Make ``os.sched_getaffinity`` report ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
