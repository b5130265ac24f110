import numpy as np
import pytest
from hypothesis import given, strategies as st

from loraprop.errors import InvalidDataError
from loraprop.metrics import (
    evaluate_predictions,
    pdr,
    r_squared,
    residual_stats,
    rmse,
)

vectors = st.lists(st.floats(-150.0, 150.0), min_size=2, max_size=40)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_computation(self):
        assert rmse([0.0, 0.0], [3.0, -3.0]) == pytest.approx(3.0)

    def test_constant_offset(self):
        actual = [10.0, 20.0, 30.0]
        predicted = [12.5, 22.5, 32.5]
        assert rmse(actual, predicted) == pytest.approx(2.5)

    @given(vectors)
    def test_symmetry(self, values):
        other = [v + 1.0 for v in values]
        assert rmse(values, other) == pytest.approx(rmse(other, values))

    @given(vectors, st.floats(-50.0, 50.0))
    def test_translation_covariance(self, values, shift):
        other = [v + 2.0 for v in values]
        assert rmse(
            [v + shift for v in values], [v + shift for v in other]
        ) == pytest.approx(rmse(values, other), abs=1e-9)

    def test_errors(self):
        with pytest.raises(InvalidDataError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(InvalidDataError):
            rmse([], [])


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_mean_predictor_scores_zero(self):
        actual = [1.0, 2.0, 3.0, 4.0]
        predicted = [2.5] * 4
        assert r_squared(actual, predicted) == pytest.approx(0.0)

    def test_anti_correlated_is_negative(self):
        actual = [1.0, 2.0, 3.0]
        predicted = [3.0, 2.0, 1.0]
        assert r_squared(actual, predicted) < 0.0

    def test_constant_actual_rejected(self):
        with pytest.raises(InvalidDataError):
            r_squared([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    @given(vectors, st.floats(-50.0, 50.0))
    def test_invariant_under_joint_shift(self, values, shift):
        values = list(values)
        if max(values) - min(values) < 1.0:  # keep the spread shift-proof
            values[0] += 2.0
        predicted = [v * 0.9 + 1.0 for v in values]
        base = r_squared(values, predicted)
        moved = r_squared(
            [v + shift for v in values], [p + shift for p in predicted]
        )
        assert moved == pytest.approx(base, abs=1e-6)


class TestResidualStats:
    def test_symmetric_sample(self):
        mean, skew, sigma = residual_stats([-1.0, 0.0, 1.0])
        assert mean == 0.0
        assert skew == pytest.approx(0.0, abs=1e-12)
        assert sigma == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_right_tail_positive_skew(self):
        _, skew, _ = residual_stats([0.0, 0.0, 0.0, 9.0])
        assert skew > 0.0

    def test_monte_carlo_gaussian(self):
        rng = np.random.default_rng(77)
        residuals = rng.normal(0.0, 8.0, size=1_000_000)
        mean, skew, sigma = residual_stats(residuals)
        assert abs(mean) < 0.03
        assert abs(skew) < 0.01
        assert abs(sigma - 8.0) / 8.0 < 0.005

    def test_sigma_mean_rmse_identity(self):
        rng = np.random.default_rng(3)
        residuals = rng.normal(1.5, 2.0, size=500)
        mean, _, sigma = residual_stats(residuals)
        rmse_about_zero = rmse(residuals, np.zeros_like(residuals))
        assert abs(sigma**2 + mean**2 - rmse_about_zero**2) < 1e-9

    def test_skewness_affine_invariant(self):
        rng = np.random.default_rng(9)
        residuals = rng.gamma(2.0, 2.0, size=2000)
        _, skew, _ = residual_stats(residuals)
        _, skew_t, _ = residual_stats(3.5 * residuals + 40.0)
        assert skew_t == pytest.approx(skew, rel=1e-9)

    def test_too_few(self):
        with pytest.raises(InvalidDataError):
            residual_stats([1.0, 2.0])


class TestPdr:
    def test_gapless(self):
        assert pdr([0, 1, 2, 3, 4]) == 1.0

    def test_single_gap(self):
        assert pdr([0, 1, 3, 4]) == pytest.approx(0.8)

    def test_wraparound(self):
        assert pdr([65534, 65535, 0, 1]) == 1.0

    def test_wrap_with_gap(self):
        assert pdr([65534, 0, 1]) == pytest.approx(3 / 4)

    def test_duplicates_do_not_inflate(self):
        assert pdr([0, 1, 1, 2]) == 1.0

    def test_nonzero_start(self):
        assert pdr([100, 101, 102]) == 1.0

    def test_counter_reset_starts_a_new_segment(self):
        # a rejoin or reboot restarts the counter; it is not a 16-bit wrap
        assert pdr([100, 101, 102, 103, 104, 0, 1, 2, 3, 4]) == 1.0
        assert pdr([10, 11, 13, 0, 1]) == pytest.approx(5 / 6)

    def test_backward_jump_of_exactly_half_the_modulus_is_a_reset(self):
        assert pdr([32768, 0, 1]) == 1.0
        assert pdr([32769, 0, 1]) == pytest.approx(3 / 32769)

    def test_empty_rejected(self):
        with pytest.raises(InvalidDataError):
            pdr([])


class TestEvaluatePredictions:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(21)
        actual = rng.normal(90.0, 12.0, size=400)
        predicted = actual + rng.normal(0.0, 4.0, size=400)
        report = evaluate_predictions(actual, predicted)
        assert report.n_observations == 400
        assert report.rmse_db == pytest.approx(rmse(actual, predicted))
        assert report.r2 == pytest.approx(r_squared(actual, predicted))
        assert report.rmse_db >= 0.0
        assert report.r2 <= 1.0
        assert report.shadowing_sigma_db >= 0.0
        # unbiased residuals: sigma and rmse nearly coincide
        assert report.shadowing_sigma_db == pytest.approx(report.rmse_db, rel=0.01)
