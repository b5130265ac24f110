from functools import lru_cache

import numpy as np
import pytest

from loraprop.errors import LorapropError
from loraprop.evaluation import CrossValReport, FoldReport, cross_validate, evaluate_model
from loraprop.fitting import FitConfig, fit
from loraprop.pipeline import kfold
from loraprop.propagation import ModelVariant

from helpers import TRUE_EP_MODEL, make_table, mw_observations, replace_columns, synth_dataset


class TestEvaluateModel:
    def test_true_model_on_zero_noise_data_is_perfect(self):
        data = synth_dataset(rows_per_device=40, seed=6, sigma_db=0.0, duplicates_per_device=0)
        report = evaluate_model(TRUE_EP_MODEL, data.clean)
        assert report.rmse_db < 1e-9
        assert report.r2 == pytest.approx(1.0)

    def test_noisy_data_sigma_matches_injected(self):
        data = synth_dataset(rows_per_device=800, seed=15, sigma_db=6.0, duplicates_per_device=0)
        report = evaluate_model(TRUE_EP_MODEL, data.clean)
        assert report.rmse_db == pytest.approx(6.0, rel=0.05)
        assert report.shadowing_sigma_db == pytest.approx(report.rmse_db, rel=0.01)
        assert 0.0 < report.r2 < 1.0


class TestCrossValidate:
    def test_fold_shape_and_determinism(self):
        records, _ = mw_observations(n=300, seed=19, sigma_db=5.0)
        a = cross_validate(records, ModelVariant.MW, folds=5, seed=42)
        b = cross_validate(records, ModelVariant.MW, folds=5, seed=42)
        assert len(a.folds) == 5
        assert a == b

    def test_fold_mean_rmse_tracks_injected_sigma(self):
        records, _ = mw_observations(n=3000, seed=51, sigma_db=9.0)
        result = cross_validate(records, ModelVariant.MW, folds=5, seed=42)
        rmse_values = [f.validation.rmse_db for f in result.folds]
        assert abs(np.mean(rmse_values) - 9.0) / 9.0 < 0.02

    def test_aggregate_shape(self):
        records, _ = mw_observations(n=200, seed=8, sigma_db=4.0)
        result = cross_validate(records, ModelVariant.MW, folds=4, seed=1)
        agg = result.aggregate()
        assert set(agg) == {
            f"{subset}_{metric}"
            for subset in ("train", "validation")
            for metric in ("rmse_db", "r2", "residual_mean_db", "residual_skewness")
        }
        for stats in agg.values():
            assert set(stats) == {"mean", "std"}
            assert stats["std"] >= 0.0

    def test_extended_variant_folds(self):
        data = synth_dataset(rows_per_device=200, seed=33, sigma_db=8.0, duplicates_per_device=0)
        result = cross_validate(data.clean, ModelVariant.MW_EP, folds=5, seed=42)
        rmse_values = [f.validation.rmse_db for f in result.folds]
        assert abs(np.mean(rmse_values) - 8.0) / 8.0 < 0.05
        assert float(np.std(rmse_values)) < 0.5

    def test_validation_scores_worse_than_train_on_average(self):
        records, _ = mw_observations(n=500, seed=4, sigma_db=7.0)
        result = cross_validate(records, ModelVariant.MW, folds=5, seed=0)
        agg = result.aggregate()
        # small but systematic generalisation gap
        assert (
            agg["validation_rmse_db"]["mean"]
            >= agg["train_rmse_db"]["mean"] - 0.2
        )


def reference_cross_validate(observations, variant, folds, seed, config=None):
    """The per-fold loop ``cross_validate`` replaced: each fold takes its rows
    into new tables, fits the train table and scores the model on both."""
    reports = []
    for fold_index, (train_idx, validation_idx) in enumerate(kfold(observations, folds, seed)):
        train = observations.take(train_idx)
        validation = observations.take(validation_idx)
        report = fit(train, variant, config)
        model = report.to_model()
        reports.append(
            FoldReport(
                fold=fold_index,
                train=evaluate_model(model, train),
                validation=evaluate_model(model, validation),
            )
        )
    return CrossValReport(folds=tuple(reports))


@lru_cache(maxsize=None)
def _table(variant, seed):
    # every distance is at least 2 m, so d0 = 2 m is a valid reference
    if variant is ModelVariant.MW:
        return mw_observations(n=240, seed=seed, sigma_db=6.0, distance_range=(2.0, 40.0))[0]
    return synth_dataset(rows_per_device=50, seed=seed, sigma_db=8.0, duplicates_per_device=0).clean


class TestFoldsFromOneDesignMatrix:
    """Slicing one design matrix per fold gives the per-fold tables' results
    exactly: every metric of every fold is equal, not merely close."""

    @pytest.mark.parametrize("config", [None, FitConfig(reference_distance_m=2.0, max_iterations=2)])
    @pytest.mark.parametrize("folds", [2, 5, 7])
    @pytest.mark.parametrize("seed", [0, 17, 1101])
    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_every_fold_report_field_is_identical(self, variant, seed, folds, config):
        table = _table(variant, seed)
        got = cross_validate(table, variant, folds=folds, seed=seed, config=config)
        want = reference_cross_validate(table, variant, folds, seed, config)
        assert len(got.folds) == folds
        for got_fold, want_fold in zip(got.folds, want.folds):
            assert got_fold.fold == want_fold.fold
            assert vars(got_fold.train) == vars(want_fold.train)
            assert vars(got_fold.validation) == vars(want_fold.validation)

    def test_capped_fit_reaches_the_folds(self):
        # the capped configuration is not a no-op: it changes the fold fits
        table = _table(ModelVariant.MW_EP, 0)
        capped = cross_validate(table, ModelVariant.MW_EP, folds=5, seed=0, config=FitConfig(max_iterations=1))
        assert capped != cross_validate(table, ModelVariant.MW_EP, folds=5, seed=0)

    @staticmethod
    def _assert_same_error(table, variant, folds, seed):
        with pytest.raises(LorapropError) as want:
            reference_cross_validate(table, variant, folds, seed)
        with pytest.raises(LorapropError) as got:
            cross_validate(table, variant, folds=folds, seed=seed)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        return str(got.value)

    def test_rank_deficient_train_side_raises_the_reference_error(self):
        # only the last fold's validation rows leave 10 m, so that fold's
        # train side has a single distance and a singular design
        n, folds, seed = 60, 5, 3
        rng = np.random.default_rng(seed)
        table = make_table(f_count=range(n), c_walls=rng.integers(0, 3, n), w_walls=rng.integers(0, 6, n))
        _, last_validation = kfold(table, folds, seed)[-1]
        distance = np.full(n, 10.0)
        distance[last_validation] = 20.0 + np.arange(last_validation.size)
        exp_pl = 40.0 + 35.0 * np.log10(distance) + 9.0 * table["c_walls"] + 3.0 * table["w_walls"]
        table = replace_columns(table, distance=distance, exp_pl=exp_pl + rng.normal(0.0, 2.0, n))
        message = self._assert_same_error(table, ModelVariant.MW, folds, seed)
        assert message.startswith("singular normal equations")

    def test_fold_model_failing_the_model_checks_raises_the_reference_error(self):
        # path loss that falls with distance fits a negative exponent, which
        # no path-loss model accepts
        records, _ = mw_observations(n=100, seed=2, sigma_db=1.0, coeffs=(90.0, -2.0, 9.0, 3.0))
        message = self._assert_same_error(records, ModelVariant.MW, 5, 0)
        assert message == "path_loss_exponent must be positive"
