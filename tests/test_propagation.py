import math

import numpy as np
import pytest
from scipy import integrate, stats

from loraprop.errors import InvalidConfigError, InvalidDataError
from loraprop.propagation import (
    WALL_TYPES,
    EnvVector,
    ModelVariant,
    PathLossModel,
    SceneSample,
    SceneSpec,
    ShadowingSpec,
    WallCounts,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_mw,
    predictor_columns,
    predict_mw_ep,
    sample_shadowing,
    save_model,
    shadowing_pdf,
    simulate_scene,
)

MW_MODEL = PathLossModel(
    variant=ModelVariant.MW,
    intercept_db=31.30,
    path_loss_exponent=3.62,
    wall_loss_db={"brick": 9.74, "wood": 2.64},
    shadowing_sigma_db=10.58,
)

EP_COEFFS = dict(
    intercept_db=5.46,
    path_loss_exponent=3.20,
    brick=8.52,
    wood=2.98,
    temperature=-0.005767,
    humidity=-0.074299,
    pressure=-0.011567,
    pm25=-0.153205,
    co2=-0.002497,
    snr=-1.982231,
)

EP_MODEL = PathLossModel(
    variant=ModelVariant.MW_EP,
    intercept_db=EP_COEFFS["intercept_db"],
    path_loss_exponent=EP_COEFFS["path_loss_exponent"],
    wall_loss_db={"brick": EP_COEFFS["brick"], "wood": EP_COEFFS["wood"]},
    env_coeffs={
        "temperature": EP_COEFFS["temperature"],
        "humidity": EP_COEFFS["humidity"],
        "pressure": EP_COEFFS["pressure"],
        "pm25": EP_COEFFS["pm25"],
        "co2": EP_COEFFS["co2"],
    },
    snr_coeff=EP_COEFFS["snr"],
    shadowing_sigma_db=8.04,
)

MEAN_ENV = EnvVector(
    temperature_c=21.207,
    humidity_pct=37.544,
    pressure_hpa=323.321,
    pm25_ugm3=1.982,
    co2_ppm=553.934,
)

ZERO_ENV = EnvVector(0.0, 0.0, 0.0, 0.0, 0.0)


class TestPredictMw:
    def test_ten_metres_no_walls(self):
        assert predict_mw(MW_MODEL, 10.0, WallCounts()) == pytest.approx(67.50, abs=1e-9)

    def test_eight_metres_one_brick(self):
        expected = 31.30 + 36.2 * math.log10(8.0) + 9.74
        assert predict_mw(MW_MODEL, 8.0, WallCounts(brick=1)) == pytest.approx(
            expected, abs=1e-12
        )
        assert predict_mw(MW_MODEL, 8.0, WallCounts(brick=1)) == pytest.approx(
            73.73, abs=5e-3
        )

    def test_reference_distance_returns_intercept(self):
        assert predict_mw(MW_MODEL, 1.0, WallCounts()) == pytest.approx(31.30)

    def test_distance_below_reference_rejected(self):
        with pytest.raises(InvalidConfigError):
            predict_mw(MW_MODEL, 0.5, WallCounts())

    def test_wrong_variant_rejected(self):
        with pytest.raises(InvalidConfigError):
            predict_mw(EP_MODEL, 10.0, WallCounts())

    def test_monotone_in_distance_and_walls(self):
        base = predict_mw(MW_MODEL, 10.0, WallCounts())
        assert predict_mw(MW_MODEL, 11.0, WallCounts()) > base
        assert predict_mw(MW_MODEL, 10.0, WallCounts(brick=1)) > base
        assert predict_mw(MW_MODEL, 10.0, WallCounts(wood=1)) > base


class TestPredictMwEp:
    def test_neutral_inputs_return_intercept(self):
        value = predict_mw_ep(EP_MODEL, 1.0, WallCounts(), 1.0, ZERO_ENV, 0.0)
        assert value == pytest.approx(5.46, abs=1e-12)

    def test_term_by_term_oracle_at_published_means(self):
        # independent spreadsheet-style evaluation, one term per line
        expected = (
            5.46
            + 10.0 * 3.20 * math.log10(10.0 / 1.0)
            + 20.0 * math.log10(868.1)
            + 0 * 8.52
            + 0 * 2.98
            + (-0.005767) * 21.207
            + (-0.074299) * 37.544
            + (-0.011567) * 323.321
            + (-0.153205) * 1.982
            + (-0.002497) * 553.934
            + (-1.982231) * 7.419
        )
        value = predict_mw_ep(EP_MODEL, 10.0, WallCounts(), 868.1, MEAN_ENV, 7.419)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_snr_linearity(self):
        lo = predict_mw_ep(EP_MODEL, 10.0, WallCounts(), 868.1, MEAN_ENV, 5.0)
        hi = predict_mw_ep(EP_MODEL, 10.0, WallCounts(), 868.1, MEAN_ENV, 6.0)
        assert hi - lo == pytest.approx(EP_COEFFS["snr"], abs=1e-9)

    def test_env_finite_difference_slopes(self):
        base = predict_mw_ep(EP_MODEL, 10.0, WallCounts(), 868.1, MEAN_ENV, 7.0)
        bumped = {
            "temperature": EnvVector(22.207, 37.544, 323.321, 1.982, 553.934),
            "humidity": EnvVector(21.207, 38.544, 323.321, 1.982, 553.934),
            "pressure": EnvVector(21.207, 37.544, 324.321, 1.982, 553.934),
            "pm25": EnvVector(21.207, 37.544, 323.321, 2.982, 553.934),
            "co2": EnvVector(21.207, 37.544, 323.321, 1.982, 554.934),
        }
        for name, env in bumped.items():
            slope = predict_mw_ep(EP_MODEL, 10.0, WallCounts(), 868.1, env, 7.0) - base
            assert slope == pytest.approx(EP_COEFFS[name], abs=1e-9)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(InvalidConfigError):
            predict_mw_ep(EP_MODEL, 10.0, WallCounts(), 0.0, MEAN_ENV, 7.0)

    def test_mw_variant_cannot_hold_env_terms(self):
        with pytest.raises(InvalidConfigError):
            PathLossModel(
                variant=ModelVariant.MW,
                intercept_db=40.0,
                path_loss_exponent=3.5,
                wall_loss_db={},
                snr_coeff=-1.0,
            )


class TestShadowingPdf:
    def test_normalisation_by_quadrature(self):
        spec = ShadowingSpec(sigma_db=9.0)
        # integrate in log space: u = ln(eps), d eps = e^u du; +-100 in u
        # covers +-48 standard deviations of the dB-domain Gaussian
        integrand = lambda u: shadowing_pdf(spec, math.exp(u)) * math.exp(u)
        total, err = integrate.quad(integrand, -100.0, 100.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mode_value(self):
        spec = ShadowingSpec(sigma_db=9.0, mean_db=3.0)
        eps_mode = 10.0 ** (spec.mean_db / 10.0)
        expected = spec.xi / (math.sqrt(2 * math.pi) * spec.sigma_db * eps_mode)
        assert shadowing_pdf(spec, eps_mode) == pytest.approx(expected, rel=1e-12)

    def test_change_of_variables_agreement(self):
        spec = ShadowingSpec(sigma_db=7.5, mean_db=-2.0)
        grid = np.logspace(-4, 4, 201)
        pdf = shadowing_pdf(spec, grid)
        db_values = 10.0 * np.log10(grid)
        gauss = stats.norm.pdf(db_values, loc=spec.mean_db, scale=spec.sigma_db)
        transformed = gauss * (spec.xi / grid)
        np.testing.assert_allclose(pdf, transformed, atol=1e-9, rtol=1e-9)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(InvalidDataError):
            shadowing_pdf(ShadowingSpec(sigma_db=9.0), 0.0)
        with pytest.raises(InvalidDataError):
            shadowing_pdf(ShadowingSpec(sigma_db=9.0), -1.0)

    def test_goodness_of_fit_against_samples(self):
        spec = ShadowingSpec(sigma_db=9.0)
        db_samples = sample_shadowing(spec, seed=2024, count=100_000)
        linear = 10.0 ** (db_samples / 10.0)
        cdf = lambda eps: stats.norm.cdf(
            (10.0 * np.log10(eps) - spec.mean_db) / spec.sigma_db
        )
        result = stats.kstest(linear, cdf)
        assert result.pvalue > 0.01


class TestSampleShadowing:
    def test_large_sample_moments(self):
        samples = sample_shadowing(ShadowingSpec(sigma_db=9.0), seed=99, count=1_000_000)
        assert abs(samples.mean()) < 0.05
        assert abs(samples.std() - 9.0) < 0.05

    def test_determinism(self):
        spec = ShadowingSpec(sigma_db=9.0)
        a = sample_shadowing(spec, seed=5, count=1000)
        b = sample_shadowing(spec, seed=5, count=1000)
        np.testing.assert_array_equal(a, b)

    def test_zero_count(self):
        assert len(sample_shadowing(ShadowingSpec(sigma_db=9.0), seed=1, count=0)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidDataError):
            sample_shadowing(ShadowingSpec(sigma_db=9.0), seed=1, count=-1)

    def test_db_domain_higher_moments_vanish(self):
        samples = sample_shadowing(ShadowingSpec(sigma_db=4.0), seed=31, count=1_000_000)
        centred = samples - samples.mean()
        m2 = np.mean(centred**2)
        skewness = np.mean(centred**3) / m2**1.5
        excess_kurtosis = np.mean(centred**4) / m2**2 - 3.0
        assert abs(skewness) < 0.02
        assert abs(excess_kurtosis) < 0.02

    def test_sigma_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            ShadowingSpec(sigma_db=0.0)


def per_wall_simulate_scene(spec: SceneSpec, seed: int) -> tuple[list[SceneSample], int]:
    """``simulate_scene`` as it was with one material and one loss draw per
    wall, kept verbatim, and the number of walls it placed."""
    rng = np.random.default_rng(seed)

    positions: list[float] = []
    pos = 0.0
    while True:
        pos += rng.uniform(*spec.wall_spacing_m)
        if pos > spec.max_distance_m:
            break
        positions.append(pos)
    materials = [WALL_TYPES[rng.integers(len(WALL_TYPES))] for _ in positions]
    losses = [rng.uniform(*spec.wall_loss_db) for _ in positions]

    distances = np.linspace(spec.reference_distance_m, spec.max_distance_m, spec.num_points)
    if spec.shadowing_sigma_db > 0:
        noise = rng.normal(0.0, spec.shadowing_sigma_db, size=spec.num_points)
    else:
        noise = np.zeros(spec.num_points)

    # walls crossed up to each distance, as prefix sums over the sorted positions
    crossed = np.searchsorted(positions, distances, side="right")
    brick = np.cumsum([0] + [material == "brick" for material in materials])[crossed]
    wood = crossed - brick
    inputs = {"distance": distances, "c_walls": brick, "w_walls": wood}
    x = predictor_columns(ModelVariant.MW, inputs.__getitem__, spec.reference_distance_m)
    true_pl = (
        spec.reference_loss_db * x[:, 0]
        + spec.path_loss_exponent * x[:, 1]
        + np.cumsum([0.0] + losses)[crossed]
    )
    columns = (distances, brick, wood, true_pl, true_pl + noise)
    samples = [
        SceneSample(d, WallCounts(b, w), pl, noisy)
        for d, b, w, pl, noisy in zip(*(c.tolist() for c in columns))
    ]
    return samples, len(positions)


class TestSimulateScene:
    def test_draws_per_column_match_the_per_wall_loop(self):
        # an odd wall count leaves half of a 32-bit draw buffered in the
        # generator, which the shadowing draws after it must not see differently
        parities = set()
        for seed in range(6):
            for max_distance_m, sigma in ((3.0, 9.0), (40.0, 9.0), (333.0, 0.0), (2e4, 4.0)):
                spec = SceneSpec(max_distance_m=max_distance_m, num_points=57, shadowing_sigma_db=sigma)
                expected, walls = per_wall_simulate_scene(spec, seed)
                # float reprs round-trip exactly, and numpy 2 shows numpy scalar types
                assert repr(simulate_scene(spec, seed)) == repr(expected)
                parities.add(walls % 2)
        assert parities == {0, 1}

    def test_reference_point_loss(self):
        spec = SceneSpec(max_distance_m=40.0, shadowing_sigma_db=0.0)
        samples = simulate_scene(spec, seed=8)
        first = samples[0]
        assert first.distance_m == pytest.approx(1.0)
        # wall spacings start at 4 m, so nothing obstructs the reference point
        assert first.walls == WallCounts()
        assert first.true_path_loss_db == pytest.approx(40.0)

    def test_zero_sigma_noisy_equals_true(self):
        spec = SceneSpec(max_distance_m=30.0, shadowing_sigma_db=0.0)
        for s in simulate_scene(spec, seed=3):
            assert s.noisy_path_loss_db == s.true_path_loss_db

    def test_slope_without_walls(self):
        spec = SceneSpec(
            max_distance_m=10.0,
            num_points=10,
            shadowing_sigma_db=0.0,
            path_loss_exponent=4.0,
            wall_spacing_m=(1000.0, 1001.0),
        )
        samples = simulate_scene(spec, seed=0)
        assert samples[-1].distance_m == pytest.approx(10.0)
        drop = samples[-1].true_path_loss_db - samples[0].true_path_loss_db
        assert drop == pytest.approx(10.0 * 4.0, abs=1e-9)

    def test_deterministic_per_seed(self):
        spec = SceneSpec(max_distance_m=40.0)
        assert simulate_scene(spec, seed=21) == simulate_scene(spec, seed=21)

    def test_true_loss_monotone_along_sweep(self):
        samples = simulate_scene(SceneSpec(max_distance_m=50.0, shadowing_sigma_db=0.0), seed=4)
        losses = [s.true_path_loss_db for s in samples]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_wall_counts_accumulate(self):
        samples = simulate_scene(SceneSpec(max_distance_m=60.0, shadowing_sigma_db=0.0), seed=12)
        totals = [s.walls.brick + s.walls.wood for s in samples]
        assert totals[-1] >= 5  # 60 m of U(4,10) spacing crosses several walls
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_invalid_scene_rejected(self):
        with pytest.raises(InvalidConfigError):
            SceneSpec(max_distance_m=0.5)

    @pytest.mark.parametrize("d0", [0.0, -1.0])
    def test_non_positive_reference_distance_rejected(self, d0):
        # d0 = 0 simulated nan/inf rows, d0 = -1 a math domain error
        with pytest.raises(InvalidConfigError, match="reference_distance_m must be positive"):
            SceneSpec(max_distance_m=40.0, reference_distance_m=d0)

    @pytest.mark.parametrize("max_distance_m", [4e6 + 1e-3, 1e17, float("nan")])
    def test_layout_of_more_than_a_million_walls_rejected(self, max_distance_m):
        # at 1e17 m the wall loop's position stopped advancing and never ended
        SceneSpec(max_distance_m=4e6)  # 10**6 walls at the 4 m minimum spacing
        with pytest.raises(InvalidConfigError, match="a scene may hold"):
            SceneSpec(max_distance_m=max_distance_m)

    @pytest.mark.parametrize("seed", [0, 3, 12, 21])
    def test_matches_pointwise_loop(self, seed):
        """Reference: the scene evaluated point by point, wall by wall, with
        the same draws.  Walls and distances match exactly; the losses sum in
        another order, so they may differ in the last bits."""
        d0 = 2.0
        spec = SceneSpec(
            max_distance_m=60.0, num_points=150, reference_distance_m=d0, shadowing_sigma_db=4.0
        )
        rng = np.random.default_rng(seed)
        positions, pos = [], 0.0
        while (pos := pos + rng.uniform(*spec.wall_spacing_m)) <= spec.max_distance_m:
            positions.append(pos)
        materials = [("brick", "wood")[rng.integers(2)] for _ in positions]
        losses = [rng.uniform(*spec.wall_loss_db) for _ in positions]
        distances = np.linspace(d0, spec.max_distance_m, spec.num_points)
        noise = rng.normal(0.0, spec.shadowing_sigma_db, size=spec.num_points)

        samples = simulate_scene(spec, seed)
        for sample, d, eps in zip(samples, distances, noise):
            crossed = [i for i, p in enumerate(positions) if p <= d]
            true_pl = (
                spec.reference_loss_db
                + 10.0 * spec.path_loss_exponent * math.log10(d / d0)
                + sum(losses[i] for i in crossed)
            )
            assert sample.distance_m == d
            assert sample.walls == WallCounts(
                brick=sum(materials[i] == "brick" for i in crossed),
                wood=sum(materials[i] == "wood" for i in crossed),
            )
            assert sample.true_path_loss_db == pytest.approx(true_pl, rel=1e-14)
            assert sample.noisy_path_loss_db == pytest.approx(true_pl + eps, rel=1e-14)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(EP_MODEL, path)
        loaded = load_model(path)
        assert loaded == EP_MODEL

    def test_mw_round_trip_via_dict(self):
        assert model_from_dict(model_to_dict(MW_MODEL)) == MW_MODEL

    def test_env_vector_invariants(self):
        with pytest.raises(InvalidConfigError):
            EnvVector(21.0, 120.0, 323.0, 2.0, 550.0)
        with pytest.raises(InvalidConfigError):
            EnvVector(21.0, 40.0, 323.0, -1.0, 550.0)
        with pytest.raises(InvalidConfigError):
            EnvVector(21.0, 40.0, 323.0, 2.0, -5.0)

    def test_wall_counts_invariants(self):
        with pytest.raises(InvalidConfigError):
            WallCounts(brick=-1)
