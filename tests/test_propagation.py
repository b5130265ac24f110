import math
import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats

from loraprop.errors import InvalidConfigError, InvalidDataError
from loraprop.propagation import (
    ENV_FIELDS,
    PARAM_NAMES,
    WALL_TYPES,
    ModelVariant,
    PathLossModel,
    SceneSpec,
    ShadowingSpec,
    fixed_term,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predictor_columns,
    sample_shadowing,
    save_model,
    shadowing_pdf,
    simulate_scene,
)

MW_MODEL = PathLossModel(ModelVariant.MW, (31.30, 3.62, 9.74, 2.64), shadowing_sigma_db=10.58)

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

EP_MODEL = PathLossModel(ModelVariant.MW_EP, tuple(EP_COEFFS.values()), shadowing_sigma_db=8.04)

MEAN_ENV = dict(temperature=21.207, humidity=37.544, pressure=323.321, pm25=1.982, co2=553.934)

ZERO_ENV = dict.fromkeys(ENV_FIELDS, 0.0)


def mw_inputs(distance, c_walls=0, w_walls=0):
    return dict(distance=distance, c_walls=c_walls, w_walls=w_walls)


def ep_inputs(distance, frequency, env, snr, c_walls=0, w_walls=0):
    return mw_inputs(distance, c_walls, w_walls) | env | dict(frequency=frequency, snr=snr)


class TestPredictMw:
    def test_ten_metres_no_walls(self):
        assert predict(MW_MODEL, mw_inputs(10.0)) == pytest.approx(67.50, abs=1e-9)

    def test_eight_metres_one_brick(self):
        expected = 31.30 + 36.2 * math.log10(8.0) + 9.74
        assert predict(MW_MODEL, mw_inputs(8.0, c_walls=1)) == pytest.approx(
            expected, abs=1e-12
        )
        assert predict(MW_MODEL, mw_inputs(8.0, c_walls=1)) == pytest.approx(
            73.73, abs=5e-3
        )

    def test_reference_distance_returns_intercept(self):
        assert predict(MW_MODEL, mw_inputs(1.0)) == pytest.approx(31.30)

    def test_distance_below_reference_rejected(self):
        with pytest.raises(InvalidConfigError):
            predict(MW_MODEL, mw_inputs(0.5))

    def test_extended_model_names_the_input_it_misses(self):
        # an extended model reads the covariates, which structural inputs lack
        with pytest.raises(InvalidConfigError, match="missing input: temperature"):
            predict(EP_MODEL, mw_inputs(10.0))

    def test_monotone_in_distance_and_walls(self):
        base = predict(MW_MODEL, mw_inputs(10.0))
        assert predict(MW_MODEL, mw_inputs(11.0)) > base
        assert predict(MW_MODEL, mw_inputs(10.0, c_walls=1)) > base
        assert predict(MW_MODEL, mw_inputs(10.0, w_walls=1)) > base


class TestPredictMwEp:
    def test_neutral_inputs_return_intercept(self):
        # 1 MHz would zero the frequency term, but it is outside the radio's band
        value = predict(EP_MODEL, ep_inputs(1.0, 868.1, ZERO_ENV, 0.0))
        assert value - 20.0 * math.log10(868.1) == pytest.approx(5.46, abs=1e-12)

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
        value = predict(EP_MODEL, ep_inputs(10.0, 868.1, MEAN_ENV, 7.419))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_snr_linearity(self):
        lo = predict(EP_MODEL, ep_inputs(10.0, 868.1, MEAN_ENV, 5.0))
        hi = predict(EP_MODEL, ep_inputs(10.0, 868.1, MEAN_ENV, 6.0))
        assert hi - lo == pytest.approx(EP_COEFFS["snr"], abs=1e-9)

    def test_env_finite_difference_slopes(self):
        base = predict(EP_MODEL, ep_inputs(10.0, 868.1, MEAN_ENV, 7.0))
        for name in ENV_FIELDS:
            env = MEAN_ENV | {name: MEAN_ENV[name] + 1.0}
            slope = predict(EP_MODEL, ep_inputs(10.0, 868.1, env, 7.0)) - base
            assert slope == pytest.approx(EP_COEFFS[name], abs=1e-9)

    @pytest.mark.parametrize("frequency", [0.0, 136.9, 1020.5, 1e300])
    def test_frequency_outside_its_range_rejected(self, frequency):
        with pytest.raises(InvalidDataError, match=re.escape(f"bad-frequency: {frequency} outside [137.0, 1020.0]")):
            predict(EP_MODEL, ep_inputs(10.0, frequency, MEAN_ENV, 7.0))

    def test_mw_variant_cannot_hold_env_terms(self):
        with pytest.raises(InvalidDataError, match=r"shape \(5,\), expected \(4,\)"):
            PathLossModel(ModelVariant.MW, (40.0, 3.5, 0.0, 0.0, -1.0))
        with pytest.raises(InvalidConfigError, match="takes no environmental or SNR"):
            model_from_dict(model_to_dict(MW_MODEL) | {"snr_coeff": -1.0})


class TestPredictInputs:
    """Each input is checked against its column's range, as ingest checks a row."""

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("humidity", 120.0, "bad-humidity: 120.0 outside [0.0, 100.0]"),
            ("pm25", -1.0, "bad-pm25: -1.0 outside [0.0, 1.7976931348623157e+308]"),
            ("co2", -5.0, "bad-co2: -5.0 outside [0.0, 1000000.0]"),
            ("co2", 1e300, "bad-co2: 1e+300 outside [0.0, 1000000.0]"),
            ("temperature", math.inf, "bad-temperature: inf outside [-1.7976931348623157e+308, 1.7976931348623157e+308]"),
            ("pressure", math.nan, "bad-pressure: nan outside [-1.7976931348623157e+308, 1.7976931348623157e+308]"),
        ],
    )
    def test_covariate_checks(self, name, value, message):
        inputs = ep_inputs(10.0, 868.1, MEAN_ENV | {name: value}, 7.0)
        with pytest.raises(InvalidDataError) as info:
            predict(EP_MODEL, inputs)
        assert str(info.value) == message

    @pytest.mark.parametrize("walls", [dict(c_walls=-1), dict(w_walls=-1)])
    @pytest.mark.parametrize("model", [MW_MODEL, EP_MODEL], ids=["mw", "mw-ep"])
    def test_wall_count_checks(self, model, walls):
        inputs = ep_inputs(10.0, 868.1, MEAN_ENV, 7.0) | walls
        (name,) = walls
        with pytest.raises(InvalidDataError, match=f"^bad-{name}: -1 outside \\[0, "):
            predict(model, inputs)

    @pytest.mark.parametrize("name", ["distance", "frequency", "pressure", "snr"])
    def test_missing_input_is_named(self, name):
        inputs = ep_inputs(10.0, 868.1, MEAN_ENV, 7.0)
        del inputs[name]
        with pytest.raises(InvalidConfigError, match=f"missing input: {name}"):
            predict(EP_MODEL, inputs)


# ---------------------------------------------------------------------------
# The scalar predictors as they were before ``predict``, kept verbatim as its
# reference, with the named-field model and covariate vector they read.


@dataclass(frozen=True)
class EnvVector:
    temperature_c: float
    humidity_pct: float
    pressure_hpa: float
    pm25_ugm3: float
    co2_ppm: float


@dataclass(frozen=True)
class NamedFieldModel:
    variant: ModelVariant
    intercept_db: float
    path_loss_exponent: float
    wall_loss_db: Mapping[str, float]
    env_coeffs: Mapping[str, float] = field(default_factory=dict)
    snr_coeff: float | None = None
    shadowing_sigma_db: float = 0.0
    reference_distance_m: float = 1.0


def params_from_model(model: NamedFieldModel) -> np.ndarray:
    """Coefficient vector of a model, in :data:`PARAM_NAMES` order."""
    values = [model.intercept_db, model.path_loss_exponent]
    values.extend(model.wall_loss_db.get(material, 0.0) for material in WALL_TYPES)
    if model.variant is ModelVariant.MW_EP:
        values.extend(model.env_coeffs.get(name, 0.0) for name in ENV_FIELDS)
        values.append(model.snr_coeff or 0.0)
    return np.array(values)


def _predict_row(model, distance_m, walls, freq_mhz=0.0, env=None, snr_db=0.0) -> float:
    """One-row form of the vectorised prediction ``x @ params + fixed``;
    ``walls`` holds the brick and wood counts, in that order."""
    brick, wood = walls
    row = dict(distance=distance_m, c_walls=brick, w_walls=wood, frequency=freq_mhz, snr=snr_db)
    if env is not None:
        values = (env.temperature_c, env.humidity_pct, env.pressure_hpa, env.pm25_ugm3, env.co2_ppm)
        row.update(zip(ENV_FIELDS, values))

    def column(name: str) -> list[float]:
        return [row[name]]

    x = predictor_columns(model.variant, column, model.reference_distance_m)
    return float((x @ params_from_model(model) + fixed_term(model.variant, column, 1))[0])


def predict_mw(model: NamedFieldModel, distance_m: float, walls: tuple[int, int]) -> float:
    """Deterministic path loss of the structural variant, in dB."""
    if model.variant is not ModelVariant.MW:
        raise InvalidConfigError(f"expected an '{ModelVariant.MW.value}' model")
    return _predict_row(model, distance_m, walls)


def predict_mw_ep(
    model: NamedFieldModel,
    distance_m: float,
    walls: tuple[int, int],
    freq_mhz: float,
    env: EnvVector,
    snr_db: float,
) -> float:
    """Deterministic path loss of the extended variant, in dB.

    Adds 20*log10(frequency in MHz), the linear covariate terms and the SNR
    term on top of the structural part.
    """
    if model.variant is not ModelVariant.MW_EP:
        raise InvalidConfigError(f"expected an '{ModelVariant.MW_EP.value}' model")
    return _predict_row(model, distance_m, walls, freq_mhz, env, snr_db)


@st.composite
def prediction_cases(draw):
    """A model of either variant and one observation of its inputs."""
    variant = draw(st.sampled_from(ModelVariant))
    coefficient = st.floats(-100.0, 100.0)
    params = [draw(coefficient), draw(st.floats(0.01, 8.0))]
    params += [draw(coefficient) for _ in PARAM_NAMES[variant][2:]]
    d0 = draw(st.floats(0.01, 100.0))
    inputs = dict(
        distance=draw(st.floats(d0, 1e5)),
        c_walls=draw(st.integers(0, 40)),
        w_walls=draw(st.integers(0, 40)),
    )
    if variant is ModelVariant.MW_EP:
        inputs |= dict(
            frequency=draw(st.floats(137.0, 1020.0)),
            temperature=draw(st.floats(-40.0, 60.0)),
            humidity=draw(st.floats(0.0, 100.0)),
            pressure=draw(st.floats(0.0, 1100.0)),
            pm25=draw(st.floats(0.0, 1000.0)),
            co2=draw(st.floats(0.0, 1e4)),
            snr=draw(st.floats(-32.0, 32.0)),
        )
    return variant, tuple(params), d0, inputs


class TestPredictEquivalence:
    @given(prediction_cases())
    def test_predict_matches_the_named_field_predictors_exactly(self, case):
        variant, params, d0, inputs = case
        extended = variant is ModelVariant.MW_EP
        reference_model = NamedFieldModel(
            variant,
            params[0],
            params[1],
            dict(zip(WALL_TYPES, params[2:4])),
            dict(zip(ENV_FIELDS, params[4:9])) if extended else {},
            params[9] if extended else None,
            reference_distance_m=d0,
        )
        walls = (inputs["c_walls"], inputs["w_walls"])
        if extended:
            env = EnvVector(*(inputs[name] for name in ENV_FIELDS))
            expected = predict_mw_ep(
                reference_model, inputs["distance"], walls, inputs["frequency"], env, inputs["snr"]
            )
        else:
            expected = predict_mw(reference_model, inputs["distance"], walls)
        assert predict(PathLossModel(variant, params, reference_distance_m=d0), inputs) == expected


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


def per_wall_simulate_scene(spec: SceneSpec, seed: int) -> tuple[dict[str, np.ndarray], int]:
    """``simulate_scene`` as it was with one material and one loss draw per
    wall, kept verbatim but for returning its columns, and the number of
    walls it placed."""
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
    return inputs | {"true_pl": true_pl, "noisy_pl": true_pl + noise}, len(positions)


def assert_same_columns(got: dict[str, np.ndarray], expected: dict[str, np.ndarray]) -> None:
    """The same column names in the same order, each of the same dtype and bytes."""
    assert list(got) == list(expected)
    for name, column in expected.items():
        assert (got[name].dtype, got[name].tobytes()) == (column.dtype, column.tobytes()), name


class TestSimulateScene:
    def test_draws_per_column_match_the_per_wall_loop(self):
        # an odd wall count leaves half of a 32-bit draw buffered in the
        # generator, which the shadowing draws after it must not see differently
        parities = set()
        for seed in range(6):
            for max_distance_m, sigma in ((3.0, 9.0), (40.0, 9.0), (333.0, 0.0), (2e4, 4.0)):
                spec = SceneSpec(max_distance_m=max_distance_m, num_points=57, shadowing_sigma_db=sigma)
                expected, walls = per_wall_simulate_scene(spec, seed)
                assert_same_columns(simulate_scene(spec, seed), expected)
                parities.add(walls % 2)
        assert parities == {0, 1}

    @pytest.mark.parametrize("spacing", [(4.0, 10.0), (5.0, 5.0), (0.5, 0.75)])
    def test_walls_drawn_at_once_match_the_per_wall_loop(self, spacing):
        # the positions are summed in order, and the shadowing draws after the
        # walls see the generator one draw past the last wall
        for seed in range(4):
            for max_distance_m in (3.0, 5.0, 61.0, 400.0):
                spec = SceneSpec(max_distance_m=max_distance_m, num_points=23, wall_spacing_m=spacing)
                expected, _ = per_wall_simulate_scene(spec, seed)
                assert_same_columns(simulate_scene(spec, seed), expected)

    def test_a_scene_of_half_a_million_walls(self):
        # pinned from the per-wall loop, which took seconds for it
        scene = simulate_scene(SceneSpec(max_distance_m=4e6, num_points=3), seed=1)
        assert_same_columns(scene, {
            "distance": np.array([1.0, 2000000.5, 4000000.0]),
            "c_walls": np.array([0, 143389, 286295], dtype=np.int64),
            "w_walls": np.array([0, 142449, 285119], dtype=np.int64),
            "true_pl": np.array([40.0, 2430551.9538017763, 4858018.045073908]),
            "noisy_pl": np.array([31.17379545138881, 2430538.0486750044, 4858012.298893782]),
        })

    def test_reference_point_loss(self):
        spec = SceneSpec(max_distance_m=40.0, shadowing_sigma_db=0.0)
        scene = simulate_scene(spec, seed=8)
        assert scene["distance"][0] == pytest.approx(1.0)
        # wall spacings start at 4 m, so nothing obstructs the reference point
        assert scene["c_walls"][0] == scene["w_walls"][0] == 0
        assert scene["true_pl"][0] == pytest.approx(40.0)

    def test_zero_sigma_noisy_equals_true(self):
        spec = SceneSpec(max_distance_m=30.0, shadowing_sigma_db=0.0)
        scene = simulate_scene(spec, seed=3)
        assert scene["noisy_pl"].tobytes() == scene["true_pl"].tobytes()

    def test_slope_without_walls(self):
        spec = SceneSpec(
            max_distance_m=10.0,
            num_points=10,
            shadowing_sigma_db=0.0,
            path_loss_exponent=4.0,
            wall_spacing_m=(1000.0, 1001.0),
        )
        scene = simulate_scene(spec, seed=0)
        assert scene["distance"][-1] == pytest.approx(10.0)
        drop = scene["true_pl"][-1] - scene["true_pl"][0]
        assert drop == pytest.approx(10.0 * 4.0, abs=1e-9)

    def test_deterministic_per_seed(self):
        spec = SceneSpec(max_distance_m=40.0)
        assert_same_columns(simulate_scene(spec, seed=21), simulate_scene(spec, seed=21))

    def test_true_loss_monotone_along_sweep(self):
        scene = simulate_scene(SceneSpec(max_distance_m=50.0, shadowing_sigma_db=0.0), seed=4)
        assert np.all(np.diff(scene["true_pl"]) >= 0)

    def test_wall_counts_accumulate(self):
        scene = simulate_scene(SceneSpec(max_distance_m=60.0, shadowing_sigma_db=0.0), seed=12)
        totals = scene["c_walls"] + scene["w_walls"]
        assert totals[-1] >= 5  # 60 m of U(4,10) spacing crosses several walls
        assert np.all(np.diff(totals) >= 0)

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

        scene = simulate_scene(spec, seed)
        crossed = [[i for i, p in enumerate(positions) if p <= d] for d in distances]
        true_pl = [
            spec.reference_loss_db
            + 10.0 * spec.path_loss_exponent * math.log10(d / d0)
            + sum(losses[i] for i in walls)
            for d, walls in zip(distances, crossed)
        ]
        expected = {
            "distance": distances,
            "c_walls": np.array([sum(materials[i] == "brick" for i in walls) for walls in crossed], dtype=np.int64),
            "w_walls": np.array([sum(materials[i] == "wood" for i in walls) for walls in crossed], dtype=np.int64),
        }
        exact = {name: scene[name] for name in expected}
        assert_same_columns(exact, expected)
        assert list(scene) == list(expected) + ["true_pl", "noisy_pl"]
        assert scene["true_pl"] == pytest.approx(true_pl, rel=1e-14)
        assert scene["noisy_pl"] == pytest.approx(np.array(true_pl) + noise, rel=1e-14)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(EP_MODEL, path)
        loaded = load_model(path)
        assert loaded == EP_MODEL

    def test_mw_round_trip_via_dict(self):
        assert model_from_dict(model_to_dict(MW_MODEL)) == MW_MODEL

    def test_json_keys_name_each_coefficient(self):
        assert model_to_dict(EP_MODEL) == {
            "variant": "mw-ep",
            "intercept_db": 5.46,
            "path_loss_exponent": 3.20,
            "wall_loss_db": {"brick": 8.52, "wood": 2.98},
            "shadowing_sigma_db": 8.04,
            "reference_distance_m": 1.0,
            "env_coeffs": {"temperature": -0.005767, "humidity": -0.074299,
                           "pressure": -0.011567, "pm25": -0.153205, "co2": -0.002497},
            "snr_coeff": -1.982231,
        }

    def test_params_by_name(self):
        named = EP_MODEL.params_by_name()
        assert list(named) == list(PARAM_NAMES[ModelVariant.MW_EP])
        assert named["wall_wood_db"] == 2.98
        assert named["env_co2"] == -0.002497
        assert named["snr_coeff"] == -1.982231

    def test_params_are_a_tuple_of_floats(self):
        model = PathLossModel(ModelVariant.MW, np.array([31.3, 3.62, 9.74, 2.64]))
        assert model.params == (31.3, 3.62, 9.74, 2.64)
        assert all(type(value) is float for value in model.params)
        assert model == PathLossModel(ModelVariant.MW, [31.3, 3.62, 9.74, 2.64])

    def test_missing_entries_read_as_zero(self):
        payload = model_to_dict(EP_MODEL)
        payload["wall_loss_db"] = {"brick": 8.52}
        payload["env_coeffs"] = {"co2": -0.002497}
        payload["snr_coeff"] = None
        named = model_from_dict(payload).params_by_name()
        assert named["wall_wood_db"] == 0.0
        assert named["env_temperature"] == 0.0
        assert named["env_co2"] == -0.002497
        assert named["snr_coeff"] == 0.0

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"wall_loss_db": {"brick": 9.74, "wood": 2.64, "concrete": 30.0}},
             "unknown wall materials: ['concrete']"),
            ({"env_coeffs": {"ozone": 1.0}}, "unknown environmental coefficients: ['ozone']"),
        ],
        ids=["wall-material", "covariate"],
    )
    def test_unknown_entry_rejected(self, entry, message):
        # a concrete wall loaded and was never used by any prediction
        with pytest.raises(InvalidConfigError) as info:
            model_from_dict(model_to_dict(EP_MODEL) | entry)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"path_loss_exponent": 0.0}, "path_loss_exponent must be positive"),
            ({"shadowing_sigma_db": -1.0}, "shadowing_sigma_db must be >= 0"),
            ({"reference_distance_m": 0.0}, "reference_distance_m must be positive"),
        ],
    )
    def test_model_checks(self, changes, message):
        with pytest.raises(InvalidConfigError) as info:
            model_from_dict(model_to_dict(MW_MODEL) | changes)
        assert str(info.value) == message
