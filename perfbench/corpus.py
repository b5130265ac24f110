"""Seeded, vectorised corpus generator for the benchmark workloads.

Every corpus is a set of CSV files in the loraprop schema plus a
``truth.json`` that records what a correct run must produce: the exact
manifest counts of ``pipeline run`` and the coefficients the measured path
loss was generated from.  Corpora are cached by (workload, seed, scale), so
a repeated seed reuses the files; generation never runs inside a timed
region.

Rows are generated with numpy, not through the package's record types, so
the generator does not share code with what it checks.  Derived columns
follow the link-budget identities (``exp_pl = offset - rssi``, ``esp`` and
``n_power`` from RSSI and SNR) to well within the audit tolerance.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = (
    "time,device_id,co2,humidity,pm25,pressure,temperature,rssi,snr,SF,"
    "frequency,f_count,p_count,toa,distance,c_walls,w_walls,exp_pl,n_power,esp"
)

#: tx power - tx cable loss + tx antenna gain + rx antenna gain - rx cable
#: loss of the campaign the package ships presets for.
LINK_OFFSET_DB = 14.0 - 0.14 + 0.4 + 3.0 - 0.0

#: Generating coefficients, in the fitter's mw-ep parameter order:
#: intercept, exponent, brick, wood, temperature, humidity, pressure, pm25,
#: co2, snr.  The frequency term has the fixed coefficient 20.
TRUE_PARAMS = {
    "intercept_db": 6.0,
    "path_loss_exponent": 3.1,
    "wall_brick_db": 8.0,
    "wall_wood_db": 3.0,
    "env_temperature": -0.006,
    "env_humidity": -0.07,
    "env_pressure": -0.012,
    "env_pm25": -0.15,
    "env_co2": -0.0025,
    "snr_coeff": -2.0,
}
SHADOWING_SIGMA_DB = 8.0

CHANNELS_MHZ = np.array([867.1, 867.3, 867.5, 867.7, 867.9, 868.1, 868.3, 868.5])
START = np.datetime64("2024-01-01T00:00:00", "s")

#: One malformed-row kind per reason ingest documents.  Each maps to the
#: reason tag the manifest counts it under.
MALFORMED_KINDS = (
    "wrong-field-count",
    "missing-value",
    "bad-time",
    "bad-rssi",
    "bad-SF",
    "bad-f_count",
    "non-finite",
    "sf out of range 7..12",
    "distance must be positive",
    "wall counts must be >= 0",
)

#: Pipeline defaults the ground truth assumes (the CLI's own defaults).
CONTAMINATION = 0.01
TEST_FRACTION = 0.2
EXCLUDED_SF = (11, 12)


@dataclass(frozen=True)
class CorpusSpec:
    devices: int
    rows_per_device: int          # valid original rows per device
    sfs: tuple[int, ...]
    duplicate_fraction: float     # injected retransmissions, share of originals
    malformed_fraction: float     # malformed rows, share of all rows written
    test_rows: int = 0            # >0: write a clean train/test pair instead


SPECS = {
    "pipeline-6dev-50k": CorpusSpec(6, 8250, (7, 8, 9, 10, 11, 12), 0.005, 0.01),
    "pipeline-32dev-dirty": CorpusSpec(32, 450, (7, 8, 9, 10, 11, 12), 0.005, 0.10),
    "model-40k": CorpusSpec(12, 50_000 // 12 + 1, (7, 8, 9, 10), 0.0, 0.0, test_rows=10_000),
}


def scaled(spec: CorpusSpec, scale: float) -> CorpusSpec:
    """The same corpus shape with fewer rows per device (smoke checks)."""
    if scale == 1.0:
        return spec
    rows = max(60, int(spec.rows_per_device * scale))
    test_rows = max(200, int(spec.test_rows * scale)) if spec.test_rows else 0
    return CorpusSpec(
        spec.devices, rows, spec.sfs, spec.duplicate_fraction,
        spec.malformed_fraction, test_rows,
    )


def _time_on_air_s(sf: np.ndarray) -> np.ndarray:
    """LoRa time on air: 125 kHz, 18-byte payload, CR 4/5, CRC, implicit header."""
    numerator = 8 * 18 - 4 * sf + 28 + 16 - 20
    blocks = -(-numerator // (4 * sf))
    n_payload = 8 + np.maximum(blocks * 5, 0)
    return (8 + 4.25 + n_payload) * (2.0 ** sf) / 125_000.0


def _excess_over_noise_db(snr: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(1.0 + 10.0 ** (snr / 10.0))


def _geometry(rng: np.random.Generator, devices: int) -> np.ndarray:
    """Per-device (distance, brick, wood) with a full-rank structural design."""
    while True:
        distance = np.round(rng.uniform(3.0, 45.0, devices), 1)
        brick = rng.integers(0, 3, devices)
        wood = rng.integers(0, 6, devices)
        x = np.column_stack([np.ones(devices), np.log10(distance), brick, wood])
        if np.linalg.matrix_rank(x) == 4 and np.linalg.cond(x) < 1e3:
            return np.column_stack([distance, brick, wood])


def _rows(columns: dict[str, np.ndarray], order: np.ndarray) -> list[list[str]]:
    names = HEADER.split(",")
    cells = [columns[name][order].tolist() for name in names]
    return [list(row) for row in zip(*cells)]


def _corrupt(row: list[str], kind: str) -> list[str]:
    """A copy of a valid row that ingest must reject with reason ``kind``."""
    names = HEADER.split(",")
    row = list(row)
    if kind == "wrong-field-count":
        return row[:-1]
    if kind == "missing-value":
        row[names.index("pressure")] = ""
    elif kind == "bad-time":
        row[0] = "2024-13-45 99:99:99"
    elif kind == "bad-rssi":
        row[names.index("rssi")] = "n/a"
    elif kind == "bad-SF":
        row[names.index("SF")] = "SF9"
    elif kind == "bad-f_count":
        row[names.index("f_count")] = row[names.index("f_count")] + ".5"
    elif kind == "non-finite":
        row[names.index("temperature")] = "nan"
    elif kind == "sf out of range 7..12":
        row[names.index("SF")] = "13"
    elif kind == "distance must be positive":
        row[names.index("distance")] = "-" + row[names.index("distance")]
    elif kind == "wall counts must be >= 0":
        row[names.index("w_walls")] = "-1"
    else:
        raise ValueError(kind)
    return row


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    text = HEADER + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    path.write_text(text)


def _pipeline_truth(
    device_ids: np.ndarray, sf: np.ndarray, duplicates: int, rejected: dict[str, int]
) -> dict:
    """Exact ``pipeline run`` manifest counts for the given valid originals."""
    per_device = {}
    after_sf = 0
    anomalies = 0
    for device in sorted(set(device_ids.tolist())):
        mask = device_ids == device
        kept = int(np.sum(mask & ~np.isin(sf, EXCLUDED_SF)))
        flagged = int(round(CONTAMINATION * kept))
        per_device[device] = {"rows": int(mask.sum()), "anomalies": flagged}
        after_sf += kept
        anomalies += flagged
    originals = int(device_ids.size)
    n_rejected = sum(rejected.values())
    clean = after_sf - anomalies
    test = int(round(TEST_FRACTION * clean))
    return {
        "counts": {
            "rows_read": originals + duplicates + n_rejected,
            "rejected": n_rejected,
            "ingested": originals + duplicates,
            "after_dedup": originals,
            "after_sf_filter": after_sf,
            "anomalies_flagged": anomalies,
            "clean": clean,
            "train": clean - test,
            "test": test,
        },
        "rejections_by_reason": dict(sorted(rejected.items())),
        "derived_audit_violations": 0,
        "per_device": per_device,
    }


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Write the corpus of ``workload`` into ``out_dir``; return its truth."""
    spec = scaled(SPECS[workload], scale)
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    n_dev, per_dev = spec.devices, spec.rows_per_device
    n = n_dev * per_dev

    geometry = _geometry(rng, n_dev)
    dev = np.repeat(np.arange(n_dev), per_dev)
    step = np.tile(np.arange(per_dev), n_dev)
    time = START + (dev * 7 + step * 60 + rng.integers(0, 30, n)).astype("timedelta64[s]")
    gaps = (rng.random(n) < 0.1).astype(np.int64)
    f_count = np.concatenate(
        [rng.integers(0, 50) + np.cumsum(1 + gaps[dev == d]) - 1 for d in range(n_dev)]
    )
    # every SF in equal share per device, in shuffled order
    sf = np.concatenate(
        [rng.permutation(np.resize(np.array(spec.sfs), per_dev)) for _ in range(n_dev)]
    )
    temperature = np.round(np.clip(rng.normal(21.0, 2.5, n), -5.0, 45.0), 2)
    humidity = np.round(np.clip(rng.normal(38.0, 6.0, n), 5.0, 95.0), 2)
    pressure = np.round(rng.normal(323.0, 10.0, n), 2)
    pm25 = np.round(np.abs(rng.normal(2.0, 2.5, n)), 2)
    co2 = np.round(np.clip(rng.normal(550.0, 130.0, n), 360.0, 2200.0), 1)
    snr = np.round(np.clip(rng.normal(8.0, 5.0, n), -24.0, 19.0), 2)
    freq = CHANNELS_MHZ[rng.integers(0, CHANNELS_MHZ.size, n)]
    distance, brick, wood = (geometry[dev, k] for k in range(3))
    device_names = np.array([f"node{d:02d}" for d in range(n_dev)])

    p = TRUE_PARAMS
    true_pl = (
        p["intercept_db"]
        + p["path_loss_exponent"] * 10.0 * np.log10(distance)
        + p["wall_brick_db"] * brick
        + p["wall_wood_db"] * wood
        + p["env_temperature"] * temperature
        + p["env_humidity"] * humidity
        + p["env_pressure"] * pressure
        + p["env_pm25"] * pm25
        + p["env_co2"] * co2
        + p["snr_coeff"] * snr
        + 20.0 * np.log10(freq)
    )

    def measured(index: np.ndarray) -> dict[str, np.ndarray]:
        rssi = np.round(
            LINK_OFFSET_DB - true_pl[index] - rng.normal(0.0, SHADOWING_SIGMA_DB, index.size), 2
        )
        excess = _excess_over_noise_db(snr[index])
        return {
            "rssi": rssi.astype(str),
            "exp_pl": np.round(LINK_OFFSET_DB - rssi, 6).astype(str),
            "n_power": np.round(rssi - excess, 6).astype(str),
            "esp": np.round(rssi + snr[index] - excess, 6).astype(str),
        }

    # retransmissions repeat a frame 1 s later with a fresh RSSI reading
    n_dup = int(round(spec.duplicate_fraction * n))
    dup_of = np.sort(rng.choice(n, size=n_dup, replace=False))
    index = np.concatenate([np.arange(n), dup_of])
    time_all = np.concatenate([time, time[dup_of] + np.timedelta64(1, "s")])
    columns = {
        "time": np.char.replace(np.datetime_as_string(time_all, unit="s"), "T", " "),
        "device_id": device_names[dev[index]],
        "co2": co2[index].astype(str),
        "humidity": humidity[index].astype(str),
        "pm25": pm25[index].astype(str),
        "pressure": pressure[index].astype(str),
        "temperature": temperature[index].astype(str),
        "snr": snr[index].astype(str),
        "SF": sf[index].astype(str),
        "frequency": freq[index].astype(str),
        "f_count": f_count[index].astype(str),
        "p_count": step[index].astype(str),
        "toa": np.round(_time_on_air_s(sf[index]), 6).astype(str),
        "distance": distance[index].astype(str),
        "c_walls": brick[index].astype(np.int64).astype(str),
        "w_walls": wood[index].astype(np.int64).astype(str),
        **measured(index),
    }
    # an export lists uplinks in arrival order across devices
    order = np.lexsort((dev[index], time_all))
    rows = _rows(columns, order)

    out_dir.mkdir(parents=True, exist_ok=True)
    truth: dict = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "true_params": TRUE_PARAMS,
        "shadowing_sigma_db": SHADOWING_SIGMA_DB,
        "geometry": geometry.tolist(),
    }
    if spec.test_rows:
        # already clean: a random train/test pair, each kept in arrival order
        is_test = np.zeros(len(rows), dtype=bool)
        is_test[rng.choice(len(rows), size=spec.test_rows, replace=False)] = True
        test_rows = [r for r, t in zip(rows, is_test) if t]
        _write_csv(out_dir / "train.csv", [r for r, t in zip(rows, is_test) if not t])
        _write_csv(out_dir / "test.csv", test_rows)
        devices_sorted = columns["device_id"][order]
        truth["pipeline"] = _pipeline_truth(
            devices_sorted[is_test], sf[index][order][is_test], 0, {}
        )
        truth["train_rows"] = len(rows) - spec.test_rows
        truth["test_rows"] = spec.test_rows
    else:
        n_bad = int(round(spec.malformed_fraction * len(rows) / (1.0 - spec.malformed_fraction)))
        kinds = [MALFORMED_KINDS[i % len(MALFORMED_KINDS)] for i in range(n_bad)]
        sources = rng.integers(0, len(rows), n_bad)
        positions = np.sort(rng.integers(0, len(rows) + 1, n_bad))
        out_rows: list[list[str]] = []
        start = 0
        for kind, source, pos in zip(kinds, sources, positions):
            out_rows.extend(rows[start:pos])
            out_rows.append(_corrupt(rows[source], kind))
            start = pos
        out_rows.extend(rows[start:])
        _write_csv(out_dir / "raw.csv", out_rows)
        rejected: dict[str, int] = {}
        for kind in kinds:
            rejected[kind] = rejected.get(kind, 0) + 1
        truth["pipeline"] = _pipeline_truth(device_names[dev], sf, n_dup, rejected)
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return truth


def cached(workload: str, seed: int, cache_root: Path, scale: float = 1.0) -> tuple[Path, dict]:
    """Corpus directory and truth for (workload, seed, scale), generating on a miss."""
    directory = cache_root / f"{workload}-s{seed}-x{scale:g}"
    truth_path = directory / "truth.json"
    if truth_path.is_file():
        return directory, json.loads(truth_path.read_text())
    partial = directory.with_name(directory.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    truth = generate(workload, seed, partial, scale)
    shutil.rmtree(directory, ignore_errors=True)
    partial.rename(directory)
    return directory, truth
