"""Multi-wall log-distance path-loss prediction with log-normal shadowing.

Two model variants are implemented: the structural baseline (distance plus
per-material wall penalties) and the extended form that adds a fixed
frequency term, linear environmental covariates and an SNR term.  Predictions
return the deterministic part only; the random shadowing term is sampled or
evaluated separately so fitting can target the deterministic component and
estimate the shadowing spread from residuals.

The coefficient layout and the formula live here once: every prediction
(the scalar :func:`predict`, the fitter's design matrix and the scene simulator)
is built from :func:`predictor_columns` and :func:`fixed_term`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .errors import InvalidConfigError, InvalidDataError
from .jsonio import read_json, write_json
from .records import COLUMN_RANGES, check_range, check_setting

#: dB-to-natural-log conversion constant, 10 / ln 10.
XI = 10.0 / math.log(10.0)

#: Wall materials the multi-wall term distinguishes.
WALL_TYPES = ("brick", "wood")

#: Canonical ordering of the environmental covariates, used for coefficient
#: vectors and design matrices everywhere in the package.
ENV_FIELDS = ("temperature", "humidity", "pressure", "pm25", "co2")


class ModelVariant(str, enum.Enum):
    MW = "mw"
    MW_EP = "mw-ep"


#: Coefficient order of each variant: intercept, exponent, one loss per wall
#: material and, for the extended variant, one slope per covariate plus the
#: SNR slope.  Models, predictor columns and fitted vectors follow it.
_STRUCTURAL_PARAMS = ("intercept_db", "path_loss_exponent") + tuple(
    f"wall_{material}_db" for material in WALL_TYPES
)
PARAM_NAMES: dict[ModelVariant, tuple[str, ...]] = {
    ModelVariant.MW: _STRUCTURAL_PARAMS,
    ModelVariant.MW_EP: _STRUCTURAL_PARAMS
    + tuple(f"env_{name}" for name in ENV_FIELDS)
    + ("snr_coeff",),
}


def check_params(params, variant: ModelVariant) -> np.ndarray:
    """The coefficient vector as floats, if its length matches the variant."""
    params = np.asarray(params, dtype=float)
    expected = len(PARAM_NAMES[variant])
    if params.shape != (expected,):
        raise InvalidDataError(
            f"parameter vector has shape {params.shape}, expected ({expected},)"
        )
    return params


@dataclass(frozen=True)
class PathLossModel:
    """Coefficient vector of either model variant, in :data:`PARAM_NAMES`
    order, stored as a tuple of floats.

    The intercept absorbs the loss at the reference distance; for the
    extended variant it also absorbs whatever constant share the frequency
    term contributes, because frequency enters in MHz.  Intercepts of the
    two variants are therefore not comparable across unit conventions.
    """

    variant: ModelVariant
    params: tuple[float, ...]
    shadowing_sigma_db: float = 0.0
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        # each value is checked before check_params makes floats of them
        for name, value in zip(PARAM_NAMES[self.variant], self.params):
            check_setting(name, value, 0.0 if name == "path_loss_exponent" else -math.inf, math.inf, "()")
        object.__setattr__(self, "params", tuple(check_params(self.params, self.variant).tolist()))
        check_setting("shadowing_sigma_db", self.shadowing_sigma_db, 0.0, math.inf, "[)")
        check_setting("reference_distance_m", self.reference_distance_m, 0.0, math.inf, "()")

    def params_by_name(self) -> dict[str, float]:
        return dict(zip(PARAM_NAMES[self.variant], self.params))


@dataclass(frozen=True)
class ShadowingSpec:
    """dB-domain Gaussian shadowing: zero-mean by default, spread sigma."""

    sigma_db: float
    mean_db: float = 0.0

    xi = XI

    def __post_init__(self) -> None:
        check_setting("sigma_db", self.sigma_db, 0.0, math.inf, "()")
        check_setting("mean_db", self.mean_db, -math.inf, math.inf, "()")


def _log10(values: np.ndarray) -> np.ndarray:
    """``math.log10`` per value; ``np.log10`` can differ from it in the last
    bit, which would move every fitted output."""
    return np.fromiter(map(math.log10, values), float, values.size)


#: Per-row inputs of the predictor columns that follow the intercept and
#: the log-distance, named after the CSV columns they are read from.
PREDICTOR_INPUTS: dict[ModelVariant, tuple[str, ...]] = {
    ModelVariant.MW: ("c_walls", "w_walls"),
    ModelVariant.MW_EP: ("c_walls", "w_walls") + ENV_FIELDS + ("snr",),
}


def predictor_columns(
    variant: ModelVariant, column: Callable[[str], Any], reference_distance_m: float
) -> np.ndarray:
    """N x p matrix of partial predictors, one column per coefficient in
    :data:`PARAM_NAMES` order: all-ones intercept, ``10 log10(d/d0)``, then
    the :data:`PREDICTOR_INPUTS`.  ``column(name)`` returns the N values of
    one input, ``"distance"`` included.  Distances below d0 are rejected: the
    formula is not defined there.
    """
    distance = np.asarray(column("distance"), dtype=float)
    if np.any(distance < reference_distance_m):
        raise InvalidConfigError(
            f"distance {distance.min()} m is below the reference distance "
            f"{reference_distance_m} m"
        )
    inputs = PREDICTOR_INPUTS[variant]
    x = np.empty((distance.size, 2 + len(inputs)))
    x[:, 0] = 1.0
    x[:, 1] = 10.0 * _log10(distance / reference_distance_m)
    for k, name in enumerate(inputs, start=2):
        x[:, k] = column(name)
    return x


def fixed_term(variant: ModelVariant, column: Callable[[str], Any], rows: int) -> np.ndarray:
    """Per-row additive loss with no free coefficient, for ``rows`` rows:
    ``20 log10(f / MHz)`` with ``f = column("frequency")`` for the extended
    variant, none for the structural one."""
    if variant is ModelVariant.MW:
        return np.zeros(rows)
    freq_mhz = np.asarray(column("frequency"), dtype=float)
    if np.any(freq_mhz <= 0):
        raise InvalidConfigError(f"frequency must be positive, got {freq_mhz.min()} MHz")
    return 20.0 * _log10(freq_mhz)


def path_loss(x: np.ndarray, params: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """``x @ params + fixed``: the deterministic loss of each row of the
    predictor columns ``x``.  A loss that overflows the float range is an
    :class:`InvalidDataError`, and no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        loss = x @ params + fixed
    if not np.isfinite(loss).all():
        raise InvalidDataError("the predicted path loss overflows the float range")
    return loss


def predict(model: PathLossModel, inputs: Mapping[str, float]) -> float:
    """Deterministic path loss of one observation, in dB: the one-row form of
    the vectorised ``x @ params + fixed``.  ``inputs`` maps the CSV column
    names the variant reads: ``distance``, ``c_walls`` and ``w_walls``, and
    for the extended variant also ``frequency``, the :data:`ENV_FIELDS` and
    ``snr``.  Each value it reads must lie in its column's
    :data:`~loraprop.records.COLUMN_RANGES` interval."""

    def column(name: str) -> list[float]:
        if name not in inputs:
            raise InvalidConfigError(f"missing input: {name}")
        return [check_range(name, inputs[name])]

    x = predictor_columns(model.variant, column, model.reference_distance_m)
    return float(path_loss(x, np.array(model.params), fixed_term(model.variant, column, 1))[0])


def shadowing_pdf(spec: ShadowingSpec, eps_linear):
    """Density of the linear-scale shadowing factor.

    This is the change-of-variables transform of the dB-domain Gaussian:
    ``xi / (sqrt(2 pi) sigma eps) * exp(-(10 log10 eps - mu)^2 / (2 sigma^2))``
    for ``eps > 0``.  Accepts scalars or arrays.
    """
    eps = np.asarray(eps_linear, dtype=float)
    if np.any(eps <= 0):
        raise InvalidDataError("the linear shadowing factor must be positive")
    z = (10.0 * np.log10(eps) - spec.mean_db) / spec.sigma_db
    density = XI / (math.sqrt(2.0 * math.pi) * spec.sigma_db * eps) * np.exp(-0.5 * z * z)
    return float(density) if np.isscalar(eps_linear) else density


def sample_shadowing(spec: ShadowingSpec, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` dB-domain shadowing values; deterministic per seed."""
    if count < 0:
        raise InvalidDataError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    return rng.normal(spec.mean_db, spec.sigma_db, size=count)


#: Walls a simulated scene may hold at its minimum wall spacing.
MAX_SCENE_WALLS = 10**6


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic single-corridor scene for simulation sweeps.

    Walls are placed at independent uniform spacings and each wall draws an
    independent uniform penetration loss and a material label.  Distances
    sweep linearly from the reference distance to ``max_distance_m``.
    """

    max_distance_m: float
    num_points: int = 200
    reference_distance_m: float = 1.0
    reference_loss_db: float = 40.0
    path_loss_exponent: float = 3.5
    shadowing_sigma_db: float = 9.0
    wall_spacing_m: tuple[float, float] = (4.0, 10.0)
    wall_loss_db: tuple[float, float] = (5.0, 12.0)

    def __post_init__(self) -> None:
        check_setting("reference_distance_m", self.reference_distance_m, 0.0, math.inf, "()")
        check_setting("max_distance_m", self.max_distance_m, float(self.reference_distance_m), math.inf, "()")
        # a scene holds the columns of all its points in memory at once
        check_setting("num_points", self.num_points, 1, 10**6)
        # the losses at the reference distance and of a wall, and the spread
        # of the shadowing, are no gain and no wider than the dBm interval,
        # like any loss a reading can show
        dbm_low, dbm_high = COLUMN_RANGES["rssi"]
        widest = dbm_high - dbm_low
        check_setting("reference_loss_db", self.reference_loss_db, 0.0, widest)
        # the loss grows with distance, as a fitted model's does; indoor
        # exponents lie near 2 to 6, and 10 keeps every loss of a sweep finite
        check_setting("path_loss_exponent", self.path_loss_exponent, 0.0, 10.0, "(]")
        check_setting("shadowing_sigma_db", self.shadowing_sigma_db, 0.0, widest)
        low, high = self.wall_spacing_m
        check_setting("wall_spacing_m[0]", low, 0.0, math.inf, "()")
        check_setting("wall_spacing_m[1]", high, float(low), math.inf, "[)")
        if self.max_distance_m / low > MAX_SCENE_WALLS:
            raise InvalidConfigError(
                f"{self.max_distance_m / low:g} walls at the minimum wall spacing"
                f" exceed the {MAX_SCENE_WALLS} a scene may hold"
            )
        low, high = self.wall_loss_db
        check_setting("wall_loss_db[0]", low, 0.0, widest)
        check_setting("wall_loss_db[1]", high, float(low), widest)


def simulate_scene(spec: SceneSpec, seed: int) -> dict[str, np.ndarray]:
    """Evaluate the structural model along a distance sweep through a random
    wall layout, with shadowing added on top of the deterministic loss.

    Returns one array per column: ``distance``, the brick and wood walls
    crossed (``c_walls``, ``w_walls``), ``true_pl`` and ``noisy_pl``.  Draw
    order is fixed (wall positions, materials, losses, then the per-point
    shadowing), so a seed pins the whole scene.
    """
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    # int(max / low) + 1 gaps of at least ``low`` reach past the end; they are
    # summed in order, as ``+=`` sums them, and the generator is then left one
    # draw past the last wall (a fresh one holds no half draw)
    low, high = spec.wall_spacing_m
    walls = np.cumsum(rng.uniform(low, high, size=int(spec.max_distance_m / low) + 1))
    positions = walls[: np.searchsorted(walls, spec.max_distance_m, side="right")]
    rng.bit_generator.state = start
    rng.bit_generator.advance(positions.size + 1)
    # one call per column draws what one call per wall would, in the same order
    is_brick = rng.integers(len(WALL_TYPES), size=len(positions)) == WALL_TYPES.index("brick")
    losses = rng.uniform(*spec.wall_loss_db, size=len(positions))

    distances = np.linspace(spec.reference_distance_m, spec.max_distance_m, spec.num_points)
    if spec.shadowing_sigma_db > 0:
        noise = rng.normal(0.0, spec.shadowing_sigma_db, size=spec.num_points)
    else:
        noise = np.zeros(spec.num_points)

    # walls crossed up to each distance, as prefix sums over the sorted positions
    crossed = np.searchsorted(positions, distances, side="right")
    brick = np.cumsum(np.concatenate(([0], is_brick)))[crossed]
    wood = crossed - brick
    inputs = {"distance": distances, "c_walls": brick, "w_walls": wood}
    x = predictor_columns(ModelVariant.MW, inputs.__getitem__, spec.reference_distance_m)
    true_pl = (
        spec.reference_loss_db * x[:, 0]
        + spec.path_loss_exponent * x[:, 1]
        + np.cumsum(np.concatenate(([0.0], losses)))[crossed]
    )
    return inputs | {"true_pl": true_pl, "noisy_pl": true_pl + noise}


def model_to_dict(model: PathLossModel) -> dict:
    """JSON-ready representation of a model."""
    named = model.params_by_name()
    payload = {
        "variant": model.variant.value,
        "intercept_db": named["intercept_db"],
        "path_loss_exponent": named["path_loss_exponent"],
        "wall_loss_db": {material: named[f"wall_{material}_db"] for material in WALL_TYPES},
        "shadowing_sigma_db": model.shadowing_sigma_db,
        "reference_distance_m": model.reference_distance_m,
    }
    if model.variant is ModelVariant.MW_EP:
        payload["env_coeffs"] = {name: named[f"env_{name}"] for name in ENV_FIELDS}
        payload["snr_coeff"] = named["snr_coeff"]
    return payload


def model_from_dict(payload: Mapping) -> PathLossModel:
    """Inverse of :func:`model_to_dict`; a missing wall material or covariate
    and a null ``snr_coeff`` read as 0."""
    try:
        variant = ModelVariant(payload["variant"])
        walls = payload["wall_loss_db"]
        env = payload.get("env_coeffs", {})
        snr = payload.get("snr_coeff")
        if variant is ModelVariant.MW and (env or snr is not None):
            raise InvalidConfigError(
                "the structural variant takes no environmental or SNR coefficients"
            )
        for what, given, known in (("wall materials", walls, WALL_TYPES),
                                   ("environmental coefficients", env, ENV_FIELDS)):
            unknown = set(given) - set(known)
            if unknown:
                raise InvalidConfigError(f"unknown {what}: {sorted(unknown)}")
        named = {f"wall_{k}_db": v for k, v in walls.items()}
        named |= {f"env_{k}": v for k, v in env.items()}
        named |= {
            "intercept_db": payload["intercept_db"],
            "path_loss_exponent": payload["path_loss_exponent"],
            "snr_coeff": 0.0 if snr is None else snr,
        }
        return PathLossModel(
            variant,
            tuple(named.get(name, 0.0) for name in PARAM_NAMES[variant]),
            shadowing_sigma_db=payload.get("shadowing_sigma_db", 0.0),
            reference_distance_m=payload.get("reference_distance_m", 1.0),
        )
    except InvalidConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidConfigError(f"invalid model description: {exc}") from exc


def save_model(model: PathLossModel, path: str | Path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str | Path) -> PathLossModel:
    return model_from_dict(read_json(path))
