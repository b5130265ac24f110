"""Shared test fixtures: synthetic observation sets with known ground truth.

The generator produces rows whose derived columns satisfy the link-budget
identities exactly, whose path loss comes from a known coefficient vector
plus seeded Gaussian shadowing, and whose frame counters carry controlled
gaps and injected retransmission duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from loraprop.fitting import predictions
from loraprop.link_budget import DEFAULT_LINK_BUDGET, esp, noise_power
from loraprop.lora_phy import RadioConfig, time_on_air
from loraprop.propagation import ModelVariant, PathLossModel, params_from_model
from loraprop.records import ObservationRecord

#: Ground-truth extended model used by synthetic datasets (arbitrary but
#: plausible magnitudes; negative covariate slopes like the fitted ones).
TRUE_EP_MODEL = PathLossModel(
    variant=ModelVariant.MW_EP,
    intercept_db=6.0,
    path_loss_exponent=3.1,
    wall_loss_db={"brick": 8.0, "wood": 3.0},
    env_coeffs={
        "temperature": -0.006,
        "humidity": -0.07,
        "pressure": -0.012,
        "pm25": -0.15,
        "co2": -0.0025,
    },
    snr_coeff=-2.0,
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


def make_record(**overrides) -> ObservationRecord:
    """One syntactically valid record with sensible defaults."""
    defaults = dict(
        time=_START,
        device_id="dev0",
        co2_ppm=550.0,
        humidity_pct=38.0,
        pm25_ugm3=2.0,
        pressure_hpa=323.0,
        temperature_c=21.0,
        rssi_dbm=-75.0,
        snr_db=8.0,
        sf=7,
        frequency_mhz=868.1,
        f_count=0,
        p_count=0,
        toa_s=0.046336,
        distance_m=10.0,
        c_walls=0,
        w_walls=0,
        exp_pl_db=92.26,
        n_power_dbm=-83.0,
        esp_dbm=-75.7,
    )
    defaults.update(overrides)
    return ObservationRecord(**defaults)


@dataclass
class SynthDataset:
    records: list[ObservationRecord]          # clean + duplicates, time order
    clean: list[ObservationRecord]
    duplicates: list[ObservationRecord]
    model: PathLossModel
    sigma_db: float


def _key(record: ObservationRecord) -> tuple:
    return (record.device_id, record.time, record.f_count)


def record_keys(records) -> set[tuple]:
    return {_key(r) for r in records}


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

    Duplicates repeat an existing frame (same counter) 1.5 s later, so the
    retransmission rule and only that rule removes them.  Frame counters
    skip one value with 10% probability to leave realistic delivery gaps.
    """
    rng = np.random.default_rng(seed)
    clean: list[ObservationRecord] = []
    duplicates: list[ObservationRecord] = []
    offset = DEFAULT_LINK_BUDGET.link_offset_db

    for device_index, (device, distance, brick, wood) in enumerate(placements):
        f_count = int(rng.integers(0, 50))
        base_time = _START
        per_device: list[ObservationRecord] = []
        for i in range(rows_per_device):
            sf = sf_cycle[i % len(sf_cycle)]
            env = dict(
                temperature_c=float(np.clip(rng.normal(21.0, 2.5), -5.0, 45.0)),
                humidity_pct=float(np.clip(rng.normal(38.0, 6.0), 5.0, 95.0)),
                pressure_hpa=float(rng.normal(323.0, 10.0)),
                pm25_ugm3=float(abs(rng.normal(2.0, 2.5))),
                co2_ppm=float(np.clip(rng.normal(550.0, 130.0), 360.0, 2200.0)),
            )
            snr = float(np.clip(rng.normal(8.0, 5.0), -24.0, 19.0))
            freq = _CHANNELS[int(rng.integers(len(_CHANNELS)))]
            stub = make_record(
                time=base_time + timedelta(seconds=60 * i),
                device_id=device,
                sf=sf,
                frequency_mhz=freq,
                snr_db=snr,
                distance_m=distance,
                c_walls=brick,
                w_walls=wood,
                f_count=f_count,
                p_count=i,
                **env,
            )
            true_pl = float(
                predictions(
                    params_from_model(model), [stub], model.variant, model.reference_distance_m
                )[0]
            )
            exp_pl = true_pl + float(rng.normal(0.0, sigma_db)) if sigma_db > 0 else true_pl
            rssi = offset - exp_pl
            cfg = RadioConfig(sf=sf, bw_hz=125_000.0, payload_bytes=18, implicit_header=True)
            record = make_record(
                time=stub.time,
                device_id=device,
                sf=sf,
                frequency_mhz=freq,
                snr_db=snr,
                distance_m=distance,
                c_walls=brick,
                w_walls=wood,
                f_count=f_count,
                p_count=i,
                rssi_dbm=rssi,
                exp_pl_db=exp_pl,
                esp_dbm=esp(rssi, snr),
                n_power_dbm=noise_power(rssi, snr),
                toa_s=time_on_air(cfg),
                **env,
            )
            per_device.append(record)
            f_count += 2 if rng.random() < 0.1 else 1

        dup_positions = rng.choice(rows_per_device, size=duplicates_per_device, replace=False)
        for position in sorted(int(p) for p in dup_positions):
            base = per_device[position]
            retrans_pl = float(
                predictions(
                    params_from_model(model), [base], model.variant, model.reference_distance_m
                )[0]
            ) + (float(rng.normal(0.0, sigma_db)) if sigma_db > 0 else 0.0)
            rssi = offset - retrans_pl
            duplicates.append(
                make_record(
                    time=base.time + timedelta(seconds=1),
                    device_id=base.device_id,
                    sf=base.sf,
                    frequency_mhz=base.frequency_mhz,
                    snr_db=base.snr_db,
                    distance_m=base.distance_m,
                    c_walls=base.c_walls,
                    w_walls=base.w_walls,
                    f_count=base.f_count,
                    p_count=base.p_count,
                    rssi_dbm=rssi,
                    exp_pl_db=retrans_pl,
                    esp_dbm=esp(rssi, base.snr_db),
                    n_power_dbm=noise_power(rssi, base.snr_db),
                    toa_s=base.toa_s,
                    co2_ppm=base.co2_ppm,
                    humidity_pct=base.humidity_pct,
                    pm25_ugm3=base.pm25_ugm3,
                    pressure_hpa=base.pressure_hpa,
                    temperature_c=base.temperature_c,
                )
            )
        clean.extend(per_device)

    merged = sorted(clean + duplicates, key=_key)
    return SynthDataset(
        records=merged, clean=clean, duplicates=duplicates, model=model, sigma_db=sigma_db
    )


def mw_observations(
    n: int = 500,
    seed: int = 11,
    sigma_db: float = 0.0,
    coeffs: tuple[float, float, float, float] = (40.0, 3.5, 9.0, 3.0),
    distance_range: tuple[float, float] = (1.0, 40.0),
) -> tuple[list[ObservationRecord], np.ndarray]:
    """Structural-variant observations at random distances and wall counts.

    Returns the records and the true coefficient vector; the measured path
    loss is the exact model value plus optional Gaussian shadowing.
    """
    rng = np.random.default_rng(seed)
    beta0, exponent, brick_loss, wood_loss = coeffs
    records = []
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
        records.append(
            make_record(
                time=_START + timedelta(seconds=60 * i),
                f_count=i,
                p_count=i,
                distance_m=distance,
                c_walls=brick,
                w_walls=wood,
                exp_pl_db=float(pl),
            )
        )
    return records, np.array(coeffs)
