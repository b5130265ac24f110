import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loraprop
from loraprop.errors import FitError, InvalidConfigError, InvalidDataError
from loraprop.fitting import (
    FitConfig,
    default_initial_params,
    design_matrix,
    fit,
    fixed_offsets,
    predictions,
    standard_errors,
)
from loraprop.pipeline import csv_lines, write_records_csv
from loraprop.propagation import ModelVariant, PathLossModel, predict
from loraprop.records import CSV_COLUMNS

from helpers import (
    TRUE_EP_MODEL,
    concat,
    make_table,
    mw_observations,
    replace_columns,
    synth_dataset,
    table_rows,
)


def independent_design(records, variant):
    """Test-side design matrix built column by column, by hand."""
    cols = [
        np.ones(len(records)),
        np.array([10.0 * math.log10(d) for d in records["distance"].tolist()]),
        np.array(records["c_walls"].tolist(), dtype=float),
        np.array(records["w_walls"].tolist(), dtype=float),
    ]
    if variant is ModelVariant.MW_EP:
        cols += [
            np.array(records[name].tolist())
            for name in ("temperature", "humidity", "pressure", "pm25", "co2", "snr")
        ]
    return np.column_stack(cols)


def rss(params, records, variant):
    """Residual sum of squares of measured minus predicted path loss."""
    residual = records["exp_pl"] - predictions(params, records, variant)
    return float(residual @ residual)


class TestRss:
    def test_zero_at_truth(self):
        records, truth = mw_observations(n=50, sigma_db=0.0)
        assert rss(truth, records, ModelVariant.MW) < 1e-18

    def test_single_observation_off_by_two(self):
        records, truth = mw_observations(n=1, sigma_db=0.0)
        shifted = truth + np.array([2.0, 0.0, 0.0, 0.0])
        assert rss(shifted, records, ModelVariant.MW) == pytest.approx(4.0, abs=1e-9)

    def test_constant_residual_sums(self):
        records, truth = mw_observations(n=25, sigma_db=0.0)
        shifted = truth + np.array([1.5, 0.0, 0.0, 0.0])
        assert rss(shifted, records, ModelVariant.MW) == pytest.approx(
            25 * 1.5**2, abs=1e-9
        )

    def test_dimension_mismatch(self):
        records, _ = mw_observations(n=10)
        with pytest.raises(InvalidDataError):
            rss(np.zeros(3), records, ModelVariant.MW)
        with pytest.raises(InvalidDataError):
            rss(np.zeros(4), records, ModelVariant.MW_EP)


class TestJacobian:
    """The models are linear in their coefficients: the design matrix is the
    Jacobian of the predictions at any coefficient vector."""

    def test_intercept_column_is_ones(self):
        records, _ = mw_observations(n=30)
        j = design_matrix(records, ModelVariant.MW)
        np.testing.assert_array_equal(j[:, 0], np.ones(30))

    def test_exponent_column_vanishes_at_reference_distance(self):
        j = design_matrix(make_table(distance=1.0), ModelVariant.MW)
        assert j[0, 1] == 0.0

    @pytest.mark.parametrize("variant", [ModelVariant.MW, ModelVariant.MW_EP])
    def test_matches_central_finite_differences(self, variant):
        if variant is ModelVariant.MW:
            records, _ = mw_observations(n=7, seed=5)
            params = default_initial_params(variant)
        else:
            records = synth_dataset(rows_per_device=2, seed=5, duplicates_per_device=0).clean
            params = default_initial_params(variant)
        analytic = design_matrix(records, variant)
        h = 1e-6
        for k in range(len(params)):
            up = params.copy()
            down = params.copy()
            up[k] += h
            down[k] -= h
            numeric = (
                predictions(up, records, variant) - predictions(down, records, variant)
            ) / (2 * h)
            np.testing.assert_allclose(analytic[:, k], numeric, atol=1e-6)


class TestFitExactRecovery:
    def test_zero_noise_structural_scene(self):
        records, truth = mw_observations(n=500, seed=11, sigma_db=0.0)
        report = fit(records, ModelVariant.MW)
        np.testing.assert_allclose(report.params, truth, atol=1e-6)
        assert report.converged
        assert report.rss < 1e-12
        assert report.shadowing_sigma_db < 1e-6

    def test_zero_noise_extended_scene_with_frequency_offsets(self):
        data = synth_dataset(rows_per_device=60, seed=9, sigma_db=0.0, duplicates_per_device=0)
        report = fit(data.clean, ModelVariant.MW_EP)
        np.testing.assert_allclose(report.params, TRUE_EP_MODEL.params, atol=1e-6)

    def test_agrees_with_one_shot_linear_solve(self):
        records, _ = mw_observations(n=400, seed=17, sigma_db=6.0)
        report = fit(records, ModelVariant.MW)
        x = independent_design(records, ModelVariant.MW)
        y = np.array(records["exp_pl"].tolist())
        direct, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(report.params, direct, atol=1e-6)

    def test_agrees_with_one_shot_linear_solve_extended(self):
        data = synth_dataset(rows_per_device=150, seed=23, sigma_db=7.0, duplicates_per_device=0)
        report = fit(data.clean, ModelVariant.MW_EP)
        x = independent_design(data.clean, ModelVariant.MW_EP)
        y = np.array(
            [
                pl - 20.0 * math.log10(f)
                for pl, f in table_rows(data.clean, ("exp_pl", "frequency"))
            ]
        )
        direct, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(report.params, direct, atol=1e-6)


class TestFitNoisy:
    def test_noisy_recovery_within_three_standard_errors(self):
        records, truth = mw_observations(n=10_000, seed=41, sigma_db=9.0)
        report = fit(records, ModelVariant.MW)
        errors = standard_errors(report, records)
        for fitted, true_value, se in zip(report.params, truth, errors):
            assert abs(fitted - true_value) <= 3.0 * se
        assert abs(report.shadowing_sigma_db - 9.0) / 9.0 < 0.05

    def test_residuals_and_sigma_consistent(self):
        records, _ = mw_observations(n=800, seed=13, sigma_db=5.0)
        report = fit(records, ModelVariant.MW)
        assert report.rss == pytest.approx(float(report.residuals @ report.residuals), rel=1e-12)
        assert report.shadowing_sigma_db == pytest.approx(
            float(np.std(report.residuals)), rel=1e-12
        )


class TestFitProperties:
    def test_deterministic(self):
        records, _ = mw_observations(n=300, seed=29, sigma_db=4.0)
        a = fit(records, ModelVariant.MW)
        b = fit(records, ModelVariant.MW)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.rss == b.rss
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.residuals, b.residuals)

    def test_constant_shift_moves_only_intercept(self):
        records, _ = mw_observations(n=200, seed=37, sigma_db=3.0)
        shifted = replace_columns(records, exp_pl=records["exp_pl"] + 12.5)
        base = fit(records, ModelVariant.MW)
        moved = fit(shifted, ModelVariant.MW)
        assert moved.params[0] - base.params[0] == pytest.approx(12.5, abs=1e-9)
        np.testing.assert_allclose(moved.params[1:], base.params[1:], atol=1e-9)

    def test_underdetermined_rejected(self):
        records, _ = mw_observations(n=4, sigma_db=0.0)
        with pytest.raises(FitError, match="underdetermined"):
            fit(records, ModelVariant.MW)

    def test_rank_deficient_design_rejected(self):
        records = make_table(
            distance=10.0, c_walls=1, w_walls=2, f_count=range(50),
            exp_pl=[90.0 + i for i in range(50)],
        )
        with pytest.raises(FitError, match="rank-deficient"):
            fit(records, ModelVariant.MW)

    @pytest.mark.parametrize("column", ["pressure", "temperature"])
    def test_rank_refusal_names_an_input_whose_span_dwarfs_the_others(self, column):
        # one 1e160 in 300 rows leaves rank 1 of 10, and the refusal read
        # "e.g. all observations at a single distance"
        records = synth_dataset(rows_per_device=60, seed=4, duplicates_per_device=0).clean.take(np.arange(300))
        values = records[column].copy()
        values[150] = 1e160
        with pytest.raises(FitError) as info:
            fit(replace_columns(records, **{column: values}), ModelVariant.MW_EP)
        prefix = (f"singular normal equations: the design is rank-deficient ({column} spans 1e+160, "
                  "which dwarfs every other input's span of at most ")
        assert str(info.value).startswith(prefix)
        assert float(str(info.value)[len(prefix):-1]) < 1e4

    @pytest.mark.parametrize(
        "walls, cause",
        [
            ("varied", "input(s) ['distance'] hold one value"),
            ("equal", "its columns are linearly dependent"),
        ],
    )
    def test_rank_refusal_names_its_cause(self, walls, cause):
        rng = np.random.default_rng(2)
        c_walls = rng.integers(0, 3, 50)
        if walls == "varied":
            records = make_table(distance=10.0, c_walls=c_walls, w_walls=rng.integers(0, 4, 50))
        else:  # every row has as many wood walls as brick ones
            records = make_table(distance=rng.uniform(2.0, 40.0, 50), c_walls=c_walls, w_walls=c_walls)
        records = replace_columns(records, f_count=np.arange(50), exp_pl=90.0 + rng.normal(0.0, 2.0, 50))
        with pytest.raises(FitError) as info:
            fit(records, ModelVariant.MW)
        assert str(info.value) == f"singular normal equations: the design is rank-deficient ({cause})"

    def test_iteration_cap_reports_non_convergence(self):
        records, _ = mw_observations(n=200, seed=6, sigma_db=8.0)
        report = fit(records, ModelVariant.MW, FitConfig(max_iterations=1))
        assert report.iterations == 1
        assert not report.converged

    def test_jacobian_dimension_mismatch(self):
        records, _ = mw_observations(n=10)
        with pytest.raises(InvalidDataError):
            predictions(np.zeros(7), records, ModelVariant.MW)

    def test_rss_non_increasing_over_accepted_steps(self):
        records, _ = mw_observations(n=250, seed=3, sigma_db=8.0)
        config = FitConfig(initial_params=(10.0, 1.0, 0.0, 0.0))
        report = fit(records, ModelVariant.MW, config)
        start = rss(np.array(config.initial_params), records, ModelVariant.MW)
        assert report.rss <= start
        assert report.converged


class TestPredictionCoherence:
    def test_matches_pointwise_model_evaluation(self):
        data = synth_dataset(rows_per_device=3, seed=2, duplicates_per_device=0)
        vectorised = predictions(TRUE_EP_MODEL.params, data.clean, ModelVariant.MW_EP)
        for values, expected in zip(table_rows(data.clean), vectorised):
            pointwise = predict(TRUE_EP_MODEL, dict(zip(CSV_COLUMNS, values)))
            assert pointwise == pytest.approx(float(expected), abs=1e-9)


class TestOneFormula:
    """The scalar predictor is a one-row call of the vectorised formula.

    Only single rows are compared: inside a larger batch, BLAS may sum a
    row's terms in another order and move its last bit.
    """

    MW_MODEL = PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64))

    @staticmethod
    def random_row(rng):
        return dict(
            distance=float(rng.uniform(1.0, 60.0)),
            c_walls=int(rng.integers(0, 4)),
            w_walls=int(rng.integers(0, 7)),
            frequency=float(rng.uniform(863.0, 870.0)),
            temperature=float(rng.normal(21.0, 3.0)),
            humidity=float(rng.uniform(10.0, 90.0)),
            pressure=float(rng.normal(323.0, 10.0)),
            pm25=float(rng.uniform(0.0, 20.0)),
            co2=float(rng.uniform(400.0, 2000.0)),
            snr=float(rng.uniform(-20.0, 15.0)),
        )

    def test_predict_mw_equals_single_row_predictions(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            r = self.random_row(rng)
            scalar = predict(self.MW_MODEL, r)
            assert scalar == predictions(self.MW_MODEL.params, make_table(**r), ModelVariant.MW)[0]

    def test_predict_mw_ep_equals_single_row_predictions(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            r = self.random_row(rng)
            scalar = predict(TRUE_EP_MODEL, r)
            assert scalar == predictions(TRUE_EP_MODEL.params, make_table(**r), ModelVariant.MW_EP)[0]

    @pytest.mark.parametrize("variant", [ModelVariant.MW, ModelVariant.MW_EP])
    def test_design_matrix_uses_math_log10_exactly(self, variant):
        records = concat(
            synth_dataset(rows_per_device=4, seed=9, duplicates_per_device=0).clean,
            mw_observations(n=50, seed=9)[0],
        )
        np.testing.assert_array_equal(
            design_matrix(records, variant), independent_design(records, variant)
        )

    def test_frequency_term_uses_math_log10_exactly(self):
        rng = np.random.default_rng(19)
        records = make_table(frequency=rng.uniform(100.0, 2500.0, 200))
        expected = [20.0 * math.log10(f) for f in records["frequency"].tolist()]
        assert fixed_offsets(records, ModelVariant.MW_EP).tolist() == expected


class TestBelowReferenceDistance:
    """Below d0 the log-distance term is undefined: every path rejects it."""

    def test_scalar_paths_reject(self):
        row = TestOneFormula.random_row(np.random.default_rng(20)) | {"distance": 0.5}
        for model in (TestOneFormula.MW_MODEL, TRUE_EP_MODEL):
            with pytest.raises(InvalidConfigError, match="below the reference distance"):
                predict(model, row)

    @pytest.mark.parametrize("variant", [ModelVariant.MW, ModelVariant.MW_EP])
    def test_design_matrix_rejects(self, variant):
        records = make_table(distance=[10.0, 0.5])
        with pytest.raises(InvalidConfigError, match="distance 0.5 m"):
            design_matrix(records, variant)

    def test_design_matrix_honours_the_reference_distance(self):
        records = make_table(distance=[2.0, 10.0])
        with pytest.raises(InvalidConfigError):
            design_matrix(records, ModelVariant.MW, reference_distance_m=5.0)
        assert design_matrix(records, ModelVariant.MW, reference_distance_m=2.0)[0, 1] == 0.0

    @pytest.mark.parametrize("variant", [ModelVariant.MW, ModelVariant.MW_EP])
    def test_fit_rejects(self, variant):
        records = concat(
            synth_dataset(rows_per_device=10, seed=4, duplicates_per_device=0).clean,
            make_table(distance=0.5),
        )
        with pytest.raises(InvalidConfigError, match="below the reference distance"):
            fit(records, variant)


class TestOffsets:
    def test_structural_variant_has_no_offsets(self):
        records, _ = mw_observations(n=5)
        np.testing.assert_array_equal(
            fixed_offsets(records, ModelVariant.MW), np.zeros(5)
        )

    def test_extended_offset_is_frequency_term(self):
        offsets = fixed_offsets(make_table(frequency=868.1), ModelVariant.MW_EP)
        assert offsets[0] == pytest.approx(20.0 * math.log10(868.1), rel=1e-12)

    def test_non_positive_frequency_raises(self):
        # ingest rejects such a row, but a table built in code can carry one
        for frequency in (0.0, -868.1):
            with pytest.raises(InvalidConfigError, match="frequency must be positive"):
                fixed_offsets(make_table(frequency=frequency), ModelVariant.MW_EP)


class TestModelConversion:
    def test_params_round_trip(self):
        rebuilt = PathLossModel(
            ModelVariant.MW_EP,
            np.array(TRUE_EP_MODEL.params),
            shadowing_sigma_db=TRUE_EP_MODEL.shadowing_sigma_db,
        )
        assert rebuilt == TRUE_EP_MODEL

    def test_report_to_model(self):
        records, truth = mw_observations(n=100, sigma_db=0.0)
        model = fit(records, ModelVariant.MW).to_model()
        assert model.variant is ModelVariant.MW
        assert model.params_by_name()["intercept_db"] == pytest.approx(truth[0], abs=1e-6)
        assert model.params_by_name()["wall_brick_db"] == pytest.approx(truth[2], abs=1e-6)


class TestBlasThreads:
    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS computes a dot product of more than 10,000 elements on
        # several threads, in an order that changes its last bit; neither the
        # rss nor, through the loop's accept and stop tests, the coefficients
        # may depend on it
        data = synth_dataset(rows_per_device=4000, seed=3, duplicates_per_device=0)
        table = tmp_path / "table.csv"
        write_records_csv(csv_lines(data.clean), table)
        assert len(data.clean) >= 20_000
        src = str(Path(loraprop.__file__).resolve().parents[1])
        script = "import json, sys; from loraprop.cli import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))"
        reports = []
        for threads in ("1", None):
            out = tmp_path / f"threads-{threads}"
            out.mkdir()
            # relative output paths, so that the manifests can be compared too
            commands = [
                argv
                for variant in ("mw", "mw-ep")
                for argv in (
                    ["fit", "--variant", variant, "--input", str(table),
                     "--out", f"{variant}.model.json", "--report", f"{variant}.fit.json"],
                    ["cross-validate", "--variant", variant, "--input", str(table), "--folds", "3",
                     "--report", f"{variant}.cv.json"],
                )
            ]
            env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                                  env=env, cwd=out, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            reports.append({path.name: path.read_bytes() for path in sorted(out.glob("*.json"))})
        assert {f"{variant}.{kind}.json" for variant in ("mw", "mw-ep") for kind in ("fit", "cv")} <= reports[0].keys()
        assert reports[0] == reports[1]
