"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

The two paper-scale criteria need the published measurement CSV; point
``LORAPROP_DATASET`` at the downloaded file to enable them, otherwise they
skip.  Everything else is a desk check on synthetic data with fixed seeds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from loraprop.adr import AdrDecision, AdrState, adr_step, record_snr, snr_margin
from loraprop.evaluation import cross_validate, evaluate_model
from loraprop.fitting import fit, standard_errors
from loraprop.link_budget import (
    DEFAULT_LINK_BUDGET,
    esp,
    experimental_path_loss,
    noise_power,
)
from loraprop.lora_phy import RadioConfig, payload_symbols, symbol_duration, time_on_air
from loraprop.pipeline import (
    IsolationForestConfig,
    daily_distribution,
    dedup_retransmissions,
    filter_sf,
    flag_anomalies,
    ingest,
    isolation_forest,
    run_pipeline,
)
from loraprop.propagation import ModelVariant, ShadowingSpec, sample_shadowing, shadowing_pdf

from conftest import dataset_path
from helpers import mw_observations, record_keys

needs_dataset = pytest.mark.dataset


def verdict(tag: str, body) -> None:
    try:
        body()
    except Exception:
        print(f"[{tag}] FAIL")
        raise
    print(f"[{tag}] PASS")


def test_a1_phy_worked_example():
    def body():
        cfg = RadioConfig(
            sf=7, bw_hz=125_000.0, payload_bytes=18, cr_index=1,
            crc_on=True, implicit_header=True, low_dr_opt=False,
        )
        assert abs(symbol_duration(cfg) - 1.024e-3) < 1e-9
        assert payload_symbols(cfg) == 33
        assert abs(time_on_air(cfg) - 46.336e-3) < 1e-6  # exact to 1 us

    verdict("A1 PHY worked example exact", body)


def test_a2_link_budget_identities():
    def body():
        rng = np.random.default_rng(20_240)
        rssi = rng.uniform(-140.0, -20.0, size=100_000)
        snr = rng.uniform(-25.0, 20.0, size=100_000)
        esp_v = np.array([esp(r, s) for r, s in zip(rssi, snr)])
        noise_v = np.array([noise_power(r, s) for r, s in zip(rssi, snr)])
        assert np.max(np.abs(esp_v - noise_v - snr)) < 1e-9
        total = 10 ** (rssi / 10.0)
        parts = 10 ** (esp_v / 10.0) + 10 ** (noise_v / 10.0)
        assert np.max(np.abs(parts - total) / total) < 1e-9

    verdict("A2 link-budget identities (1e5 pairs)", body)


def test_a3_experimental_path_loss_offset():
    def body():
        rng = np.random.default_rng(7)
        for rssi in rng.uniform(-140.0, -20.0, size=1000):
            value = experimental_path_loss(DEFAULT_LINK_BUDGET, rssi)
            assert abs(value - (17.26 - rssi)) < 1e-9
        assert abs(experimental_path_loss(DEFAULT_LINK_BUDGET, -128.0) - 145.26) < 1e-9
        assert abs(experimental_path_loss(DEFAULT_LINK_BUDGET, -28.0) - 45.26) < 1e-9

    verdict("A3 derived path-loss offset 17.26 - RSSI", body)


def test_a4_shadowing_law():
    def body():
        spec = ShadowingSpec(sigma_db=9.0)
        integrand = lambda u: shadowing_pdf(spec, math.exp(u)) * math.exp(u)
        total, _ = integrate.quad(integrand, -100.0, 100.0, limit=200)
        assert abs(total - 1.0) < 1e-6

        samples = sample_shadowing(spec, seed=424_242, count=1_000_000)
        assert abs(samples.std() - 9.0) < 0.05
        assert abs(samples.mean()) < 0.05
        centred = samples - samples.mean()
        m2 = np.mean(centred**2)
        skewness = np.mean(centred**3) / m2**1.5
        assert abs(skewness) < 0.02

    verdict("A4 shadowing pdf + sampled moments", body)


def test_a5_fitter_oracle():
    def body():
        # exact recovery, zero noise
        records, truth = mw_observations(n=500, seed=11, sigma_db=0.0)
        report = fit(records, ModelVariant.MW)
        assert np.max(np.abs(report.params - truth)) < 1e-6

        # damped iteration agrees with a one-shot linear solve (independent
        # column construction) on a full-rank noisy set
        noisy, _ = mw_observations(n=2000, seed=77, sigma_db=9.0)
        x = np.column_stack(
            [
                np.ones(len(noisy)),
                [10.0 * math.log10(d) for d in noisy["distance"].tolist()],
                [float(w) for w in noisy["c_walls"].tolist()],
                [float(w) for w in noisy["w_walls"].tolist()],
            ]
        )
        y = np.array(noisy["exp_pl"].tolist())
        direct, *_ = np.linalg.lstsq(x, y, rcond=None)
        noisy_report = fit(noisy, ModelVariant.MW)
        assert np.max(np.abs(noisy_report.params - direct)) < 1e-6

        # statistical recovery at scale
        big, truth = mw_observations(n=10_000, seed=41, sigma_db=9.0)
        big_report = fit(big, ModelVariant.MW)
        errors = standard_errors(big_report, big)
        assert np.all(np.abs(big_report.params - truth) <= 3.0 * errors)
        assert abs(big_report.shadowing_sigma_db - 9.0) / 9.0 < 0.05

    verdict("A5 fitter vs oracles (exact / lstsq / 3 SE)", body)


def test_a6_adr():
    def body():
        state = AdrState(current_sf=7, current_power_dbm=14.0, snr_history=(9.5,))
        assert snr_margin(state) == pytest.approx(7.0)

        rng = np.random.default_rng(616)
        walk = AdrState(
            current_sf=12, current_power_dbm=6.0, snr_history=(0.0,), max_power_dbm=14.0
        )
        for _ in range(10_000):
            walk = record_snr(walk, float(rng.uniform(-30.0, 15.0)))
            walk, decision = adr_step(walk)
            assert walk.min_sf <= walk.current_sf <= 12
            assert walk.current_power_dbm <= walk.max_power_dbm
            assert isinstance(decision, AdrDecision)

    verdict("A6 ADR margin + clamp walk", body)


def test_a7_pipeline_determinism(tmp_path, a7_corpus):
    def body():
        data, raw = a7_corpus
        assert len(data.clean) == 10_000

        out = tmp_path / "out"
        run_pipeline(raw, out, seed=42, contamination=0.01)
        first = {
            name: (out / name).read_bytes()
            for name in ("cleaned.csv", "train.csv", "test.csv", "manifest.json")
        }
        run_pipeline(raw, out, seed=42, contamination=0.01)
        second = {
            name: (out / name).read_bytes()
            for name in ("cleaned.csv", "train.csv", "test.csv", "manifest.json")
        }
        assert first == second

        # dedup removes exactly the injected retransmissions
        ingested = ingest(raw).records
        deduped = dedup_retransmissions(ingested)
        assert record_keys(deduped) == record_keys(data.clean)

        # the anomaly screen flags exactly round(0.01 * N) rows
        survivors = filter_sf(deduped)
        flags, _ = flag_anomalies(survivors, IsolationForestConfig(contamination=0.01, seed=42))
        assert int(flags.sum()) == round(0.01 * len(survivors)) == 100

        # and the single-matrix operation obeys the same exact-count contract
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(10_000, 7))
        result = isolation_forest(matrix, IsolationForestConfig(contamination=0.01, seed=1))
        assert int(result.flags.sum()) == 100

    verdict("A7 pipeline determinism + exact counts", body)


def test_a9_synthetic_cross_validation():
    def body():
        records, _ = mw_observations(n=10_000, seed=314, sigma_db=9.0)
        result = cross_validate(records, ModelVariant.MW, folds=5, seed=42)
        fold_rmse = [f.validation.rmse_db for f in result.folds]
        assert abs(np.mean(fold_rmse) - 9.0) / 9.0 < 0.02

    verdict("A9a synthetic CV fold-mean RMSE ~ injected sigma", body)


# ---------------------------------------------------------------------------
# Paper-scale criteria (need the published dataset)


def _load_published():
    path = dataset_path()
    if path is None:
        pytest.skip(
            "published measurement dataset not available; "
            "set LORAPROP_DATASET to the downloaded CSV to run this check"
        )
    return path


@needs_dataset
def test_a8_paper_scale_reproduction(tmp_path):
    def body():
        out = tmp_path / "published"
        result = run_pipeline(_load_published(), out, seed=42, contamination=0.01)

        counts = result.manifest["counts"]
        rejection_rate = counts["rejected"] / counts["rows_read"]
        assert 0.0001 <= rejection_rate <= 0.0011  # ~0.06% +- 0.05 pp

        for device, info in result.manifest["per_device"].items():
            assert 0.87 <= info["pdr"] <= 0.93

        mw_report = fit(result.train, ModelVariant.MW)
        mw_model = mw_report.to_model()
        mw_eval = evaluate_model(mw_model, result.test)
        assert 10.0 <= mw_eval.rmse_db <= 11.2
        assert 0.66 <= mw_eval.r2 <= 0.72

        ep_report = fit(result.train, ModelVariant.MW_EP)
        ep_model = ep_report.to_model()
        ep_eval = evaluate_model(ep_model, result.test)
        assert 7.5 <= ep_eval.rmse_db <= 8.6
        assert 0.79 <= ep_eval.r2 <= 0.85

        for report in (mw_report, ep_report):
            named = report.params_by_name()
            assert named["intercept_db"] > 0
            assert 2.8 <= named["path_loss_exponent"] <= 4.0
            assert named["wall_brick_db"] > 0
            assert named["wall_wood_db"] > 0
        ep_named = ep_report.params_by_name()
        for key in ("env_temperature", "env_humidity", "env_pressure",
                    "env_pm25", "env_co2", "snr_coeff"):
            assert ep_named[key] < 0

    verdict("A8 paper-scale fit bands + coefficient signs", body)


@needs_dataset
def test_a9_published_cross_validation_stability(tmp_path):
    def body():
        out = tmp_path / "published_cv"
        result = run_pipeline(_load_published(), out, seed=42, contamination=0.01)

        all_shares = daily_distribution(result.clean)
        train_shares = daily_distribution(result.train)
        for day, share in all_shares.items():
            assert abs(train_shares.get(day, 0.0) - share) < 2.0

        for variant in (ModelVariant.MW, ModelVariant.MW_EP):
            cv = cross_validate(result.train, variant, folds=5, seed=42)
            fold_rmse = [f.validation.rmse_db for f in cv.folds]
            assert float(np.std(fold_rmse)) < 0.2

    verdict("A9b published CV fold-RMSE spread < 0.2 dB", body)
