"""Every setting of every config type goes through ``records.check_setting``:
a value that is not a number of the setting's kind, or lies outside its
interval, is refused with ``<setting> must be in <interval>, got <value>``,
and each end of the interval (or the nearest value it admits) is accepted.
The CLI probes below each exited 0, with a traceback or with a message
that named no schedule line before the check."""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import pytest

from loraprop.adr import AdrState
from loraprop.cli import main
from loraprop.errors import InvalidConfigError
from loraprop.fitting import FitConfig
from loraprop.link_budget import DEFAULT_LINK_BUDGET, LinkBudgetParams
from loraprop.lora_phy import RadioConfig, duty_cycle
from loraprop.pipeline import IsolationForestConfig, SplitSpec, dedup_retransmissions, kfold, run_pipeline
from loraprop.propagation import PARAM_NAMES, ModelVariant, PathLossModel, SceneSpec, ShadowingSpec, save_model

from helpers import make_table

INF = math.inf
MAX = sys.float_info.max
TINY = math.ulp(0.0)
EP_PARAMS = dict(zip(PARAM_NAMES[ModelVariant.MW_EP], (31.3, 3.62, 9.74, 2.64, 0.1, 0.2, 0.3, 0.4, 0.5, -1.0)))
RADIO = dict(sf=7, bw_hz=125_000.0, payload_bytes=18)
ADR = dict(current_sf=12, current_power_dbm=-200.0, max_power_dbm=30.0)
SCENE = dict(max_distance_m=40.0)
TABLE = make_table(f_count=range(3))


def _field(config_type, base, name):
    return lambda value: config_type(**(base | {name: value}))


def _model_param(name):
    return lambda value: PathLossModel(ModelVariant.MW_EP, tuple((EP_PARAMS | {name: value}).values()))


#: (config type, setting, a function building the config with that setting
#: set, low, high, brackets, values at or nearest the ends that are admitted)
SETTINGS = [
    ("RadioConfig", "sf", _field(RadioConfig, RADIO, "sf"), 7, 12, "[]", [7, 12]),
    ("RadioConfig", "cr_index", _field(RadioConfig, RADIO, "cr_index"), 1, 4, "[]", [1, 4]),
    ("RadioConfig", "payload_bytes", _field(RadioConfig, RADIO, "payload_bytes"), 1, 255, "[]", [1, 255]),
    ("RadioConfig", "preamble_symbols", _field(RadioConfig, RADIO, "preamble_symbols"), 0, 65535, "[]", [0, 65535]),
    ("AdrState", "min_sf", _field(AdrState, ADR, "min_sf"), 7, 12, "[]", [7, 12]),
    ("AdrState", "current_sf", _field(AdrState, ADR, "current_sf"), 7, 12, "[]", [7, 12]),
    ("AdrState", "current_power_dbm", _field(AdrState, ADR, "current_power_dbm"), -200.0, 30.0, "[]", [-200.0, 30.0]),
    ("AdrState", "max_power_dbm", _field(AdrState, ADR, "max_power_dbm"), -200.0, 30.0, "[]", [-200.0, 30.0]),
    ("AdrState", "fade_margin_db", _field(AdrState, ADR, "fade_margin_db"), 0.0, 64.0, "[]", [0.0, 64.0]),
    ("AdrState", "power_step_db", _field(AdrState, ADR, "power_step_db"), 0.0, 230.0, "(]", [TINY, 230.0]),
    ("AdrState", "history_capacity", _field(AdrState, ADR, "history_capacity"), 1, INF, "[)", [1, 2**100]),
    ("FitConfig", "initial_params[2]", lambda v: FitConfig(initial_params=(40.0, 3.5, v, 3.0)), -INF, INF, "()",
     [-MAX, MAX]),
    ("FitConfig", "max_iterations", _field(FitConfig, {}, "max_iterations"), 1, INF, "[)", [1, 2**100]),
    ("FitConfig", "rss_tolerance", _field(FitConfig, {}, "rss_tolerance"), 0.0, INF, "()", [TINY, MAX]),
    ("FitConfig", "damping_initial", _field(FitConfig, {}, "damping_initial"), 0.0, INF, "()", [TINY, MAX]),
    ("FitConfig", "damping_up", _field(FitConfig, {}, "damping_up"), 1.0, INF, "()", [math.nextafter(1.0, 2.0), MAX]),
    ("FitConfig", "damping_down", _field(FitConfig, {}, "damping_down"), 0.0, 1.0, "()",
     [TINY, math.nextafter(1.0, 0.0)]),
    ("FitConfig", "reference_distance_m", _field(FitConfig, {}, "reference_distance_m"), 0.0, INF, "()", [TINY, MAX]),
    *[("LinkBudgetParams", name, _field(LinkBudgetParams, dataclasses.asdict(DEFAULT_LINK_BUDGET), name), *interval)
      for name, interval in {
          "tx_power_dbm": (-INF, INF, "()", [-MAX, MAX]),
          "tx_cable_loss_db": (0.0, INF, "[)", [0.0, MAX]),
          "tx_antenna_gain_dbi": (-INF, INF, "()", [-MAX, MAX]),
          "rx_antenna_gain_dbi": (-INF, INF, "()", [-MAX, MAX]),
          "rx_cable_loss_db": (0.0, INF, "[)", [0.0, MAX]),
          "tx_antenna_height_m": (0.0, INF, "()", [TINY, MAX]),
          "rx_antenna_height_m": (0.0, INF, "()", [TINY, MAX]),
      }.items()],
    # the scene's ends meet its cross-field checks: the reference distance
    # stays below the 40 m sweep, which holds at most 10**6 walls
    ("SceneSpec", "reference_distance_m", _field(SceneSpec, SCENE, "reference_distance_m"), 0.0, INF, "()",
     [TINY, 39.0]),
    ("SceneSpec", "max_distance_m", _field(SceneSpec, SCENE, "max_distance_m"), 1.0, INF, "()",
     [math.nextafter(1.0, 2.0), 4e6]),
    ("SceneSpec", "num_points", _field(SceneSpec, SCENE, "num_points"), 1, 10**6, "[]", [1, 10**6]),
    ("SceneSpec", "reference_loss_db", _field(SceneSpec, SCENE, "reference_loss_db"), 0.0, 230.0, "[]",
     [0.0, 230.0]),
    ("SceneSpec", "path_loss_exponent", _field(SceneSpec, SCENE, "path_loss_exponent"), 0.0, 10.0, "(]",
     [TINY, 10.0]),
    ("SceneSpec", "shadowing_sigma_db", _field(SceneSpec, SCENE, "shadowing_sigma_db"), 0.0, 230.0, "[]",
     [0.0, 230.0]),
    ("SceneSpec", "wall_spacing_m[0]", lambda v: SceneSpec(40.0, wall_spacing_m=(v, 10.0)), 0.0, INF, "()",
     [4e-5, 10.0]),
    ("SceneSpec", "wall_spacing_m[1]", lambda v: SceneSpec(40.0, wall_spacing_m=(4.0, v)), 4.0, INF, "[)",
     [4.0, MAX]),
    ("SceneSpec", "wall_loss_db[0]", lambda v: SceneSpec(40.0, wall_loss_db=(v, 12.0)), 0.0, 230.0, "[]",
     [0.0, 12.0]),
    ("SceneSpec", "wall_loss_db[1]", lambda v: SceneSpec(40.0, wall_loss_db=(5.0, v)), 5.0, 230.0, "[]",
     [5.0, 230.0]),
    ("ShadowingSpec", "sigma_db", _field(ShadowingSpec, {}, "sigma_db"), 0.0, INF, "()", [TINY, MAX]),
    ("ShadowingSpec", "mean_db", _field(ShadowingSpec, {"sigma_db": 9.0}, "mean_db"), -INF, INF, "()", [-MAX, MAX]),
    *[("PathLossModel", name, _model_param(name), 0.0 if name == "path_loss_exponent" else -INF, INF, "()",
       [TINY if name == "path_loss_exponent" else -MAX, MAX])
      for name in PARAM_NAMES[ModelVariant.MW_EP]],
    ("PathLossModel", "shadowing_sigma_db",
     lambda v: PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64), shadowing_sigma_db=v), 0.0, INF, "[)",
     [0.0, MAX]),
    ("PathLossModel", "reference_distance_m",
     lambda v: PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64), reference_distance_m=v), 0.0, INF, "()",
     [TINY, MAX]),
    ("IsolationForestConfig", "contamination", _field(IsolationForestConfig, {}, "contamination"), 0.0, 0.5, "()",
     [TINY, math.nextafter(0.5, 0.0)]),
    ("IsolationForestConfig", "n_trees", _field(IsolationForestConfig, {}, "n_trees"), 1, INF, "[)", [1, 2**100]),
    ("IsolationForestConfig", "subsample_size", _field(IsolationForestConfig, {}, "subsample_size"), 2, INF, "[)",
     [2, 2**100]),
    ("IsolationForestConfig", "seed", _field(IsolationForestConfig, {}, "seed"), 0, INF, "[)", [0, 2**100]),
    ("SplitSpec", "test_fraction", _field(SplitSpec, {}, "test_fraction"), 0.0, 1.0, "()",
     [TINY, math.nextafter(1.0, 0.0)]),
    ("SplitSpec", "seed", _field(SplitSpec, {}, "seed"), 0, INF, "[)", [0, 2**100]),
    ("dedup_retransmissions", "dedup_window_s", lambda v: dedup_retransmissions(TABLE, v), 0.0, INF, "[)",
     [0.0, MAX]),
    # more folds than rows is refused as data, not as a setting
    ("kfold", "folds", lambda v: kfold(TABLE, v, 0), 2, INF, "[)", [2, 3]),
    ("kfold", "seed", lambda v: kfold(TABLE, 2, v), 0, INF, "[)", [0, 2**100]),
    ("duty_cycle", "limit", lambda v: duty_cycle([], limit=v), 0.0, INF, "()", [TINY, MAX]),
    ("duty_cycle", "count of entry 0", lambda v: duty_cycle([(RadioConfig(**RADIO), v)]), 0.0, INF, "[)",
     [0.0, 1e300]),
]


def _refused(low, high, brackets):
    """Values outside the setting's kind or interval: not numbers, not finite,
    not integers for an integer setting, and the nearest values past each
    finite end."""
    integer = isinstance(low, int)
    values = [math.nan, INF, -INF, True, "1"] + ([2.5] if integer else [])
    for end, closed, away in ((low, brackets[0] == "[", -1), (high, brackets[1] == "]", 1)):
        if not math.isfinite(end):
            continue
        if not closed:
            values.append(end)
        elif integer:
            values.append(end + away)
        else:
            values.append(math.nextafter(end, away * INF))
    return values


@pytest.mark.parametrize(
    "make, name, low, high, brackets, admitted",
    [(make, name, *interval) for _, name, make, *interval in SETTINGS],
    ids=[f"{config_type}.{name}" for config_type, name, *_ in SETTINGS],
)
def test_each_setting_is_checked_against_its_interval(make, name, low, high, brackets, admitted):
    for value in admitted:
        make(value)
    for value in _refused(low, high, brackets):
        shown = repr(value) if isinstance(value, str) else value
        with pytest.raises(InvalidConfigError) as info:
            make(value)
        assert str(info.value) == f"{name} must be in {brackets[0]}{low}, {high}{brackets[1]}, got {shown}"


@pytest.mark.parametrize("flag", ["crc_on", "implicit_header", "low_dr_opt"])
def test_radio_flags_are_bools(flag):
    for value in (True, False):
        RadioConfig(**RADIO, **{flag: value})
    for value in (1, 0, "no", None):
        with pytest.raises(InvalidConfigError) as info:
            RadioConfig(**RADIO, **{flag: value})
        assert str(info.value) == f"{flag} must be true or false, got {value!r}"


def test_an_int_low_end_does_not_make_a_float_setting_integer():
    # an int reference distance or low wall bound once refused every float above it
    SceneSpec(40.5, reference_distance_m=2, wall_spacing_m=(4, 10.5), wall_loss_db=(5, 12.5))
    with pytest.raises(InvalidConfigError, match=r"^max_distance_m must be in \(2\.0, inf\), got 2\.0$"):
        SceneSpec(2.0, reference_distance_m=2)


@pytest.mark.parametrize("value", [{}, "", 3.5, "40, 3.5"])
def test_initial_params_is_a_list(value):
    with pytest.raises(InvalidConfigError) as info:
        FitConfig(initial_params=value)
    assert str(info.value) == f"initial_params must be a list of numbers, got {value!r}"


@pytest.mark.parametrize(
    "setting, error",
    [
        ({"seed": -1}, "seed must be in [0, inf), got -1"),
        ({"contamination": 0.7}, "contamination must be in (0.0, 0.5), got 0.7"),
        ({"dedup_window_s": -5.0}, "dedup_window_s must be in [0.0, inf), got -5.0"),
        ({"test_fraction": 1.0}, "test_fraction must be in (0.0, 1.0), got 1.0"),
    ],
)
def test_run_pipeline_checks_its_settings_before_it_reads_the_input(tmp_path, setting, error):
    # a bad contamination was refused only after ingest, dedup and the SF filter
    with pytest.raises(InvalidConfigError) as info:
        run_pipeline(tmp_path / "missing.csv", tmp_path / "out", **setting)
    assert str(info.value) == error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, error",
    [
        (["fit", "--out", "m.json"], ["--config", '{"max_iterations": 0}'], "max_iterations must be in [1, inf), got 0"),
        (["cross-validate"], ["--config", '{"damping_down": 1.5}'], "damping_down must be in (0.0, 1.0), got 1.5"),
        (["cross-validate"], ["--folds", "1"], "folds must be in [2, inf), got 1"),
    ],
    ids=["fit-config", "cross-validate-config", "cross-validate-folds"],
)
def test_model_commands_check_their_settings_before_they_read_the_input(
    capsys, caplog, tmp_path, monkeypatch, small_synth_csv, command, flag, error
):
    # the input was ingested first, and a fold count was checked only in kfold
    read = []
    monkeypatch.setattr("loraprop.cli.ingest", lambda path: read.append(path))
    if flag[0] == "--config":
        (tmp_path / "config.json").write_text(flag[1])
        flag = ["--config", str(tmp_path / "config.json")]
    argv = [command[0], "--variant", "mw", "--input", str(small_synth_csv), *command[1:], *flag]
    _refused_run(capsys, caplog, argv, error)
    assert read == []


def _refused_run(capsys, caplog, argv, error):
    """``argv`` exits 1 with ``error`` as its one ERROR line and prints nothing."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [error]


class TestCliProbes:
    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"sf": 7.5}, "sf must be in [7, 12], got 7.5"),
            ({"payload_bytes": 10.5}, "payload_bytes must be in [1, 255], got 10.5"),
            ({"cr_index": True}, "cr_index must be in [1, 4], got True"),
            ({"crc_on": "no"}, "crc_on must be true or false, got 'no'"),
            ({"count": "3"}, "count must be in [0.0, inf), got '3'"),
            ({"preamble_symbols": 1e300}, "preamble_symbols must be in [0, 65535], got 1e+300"),
            ({"bw_hz": 1e-300}, "bw_hz must be a LoRa bandwidth (7800, 10400, 15600, 20800, 31250, 41700, 62500,"
                                " 125000, 250000, 500000 Hz), got 1e-300"),
            ({"spreading": 7}, "RadioConfig.__init__() got an unexpected keyword argument 'spreading'"),
        ],
        ids=["sf", "payload_bytes", "cr_index", "crc_on", "count", "preamble_symbols", "bw_hz", "unknown-field"],
    )
    def test_duty_cycle_schedule_line(self, capsys, caplog, tmp_path, fields, error):
        # a count was named by its 0-based entry and a radio field by no line at all
        line = json.dumps({"sf": 7, "bw_hz": 125000, "payload_bytes": 18, "count": 5})
        schedule = tmp_path / "schedule.jsonl"
        schedule.write_text(line + "\n\n" + json.dumps(json.loads(line) | fields) + "\n")
        _refused_run(capsys, caplog, ["duty-cycle", "--schedule", str(schedule)], f"schedule line 3: {error}")

    def test_duty_cycle_schedule_line_that_is_not_utf8(self, capsys, caplog, tmp_path):
        # named no line
        schedule = tmp_path / "schedule.jsonl"
        schedule.write_bytes(b'{"sf": 7, "bw_hz": 125000, "payload_bytes": 18, "count": 5}\r\n{"x": "\xff"}\r\n')
        _refused_run(capsys, caplog, ["duty-cycle", "--schedule", str(schedule)],
                     "schedule line 2: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte")

    @pytest.mark.parametrize("variant", ["mw", "mw-ep"])
    @pytest.mark.parametrize(
        "env, error",
        [
            ({"co2": True}, "co2 must be a JSON number, got True"),
            ({"co2": "400"}, "co2 must be a JSON number, got '400'"),
            ({"bogus": 1}, "unknown readings ['bogus'], not among ['temperature', 'humidity', 'pressure', 'pm25', 'co2']"),
        ],
        ids=["bool", "string", "unknown"],
    )
    def test_predict_env_json(self, capsys, caplog, tmp_path, variant, env, error):
        # each exited 0 on an mw model, and an unknown key on an mw-ep one
        model = tmp_path / "model.json"
        if variant == "mw":
            save_model(PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64)), model)
            flags = ["--env-json", json.dumps(env)]
        else:
            save_model(PathLossModel(ModelVariant.MW_EP, tuple(EP_PARAMS.values())), model)
            readings = {"temperature": 21, "humidity": 38, "pressure": 323, "pm25": 2, "co2": 550} | env
            flags = ["--env-json", json.dumps(readings), "--freq", "868.1", "--snr", "7.4"]
        _refused_run(capsys, caplog, ["predict", "--model", str(model), "--distance", "10", *flags],
                     f"bad --env-json: {error}")

    def test_airtime_preamble_past_16_bits(self, capsys, caplog):
        # printed "toa_ms": 1.024e+30
        preamble = "1" + "0" * 30
        _refused_run(capsys, caplog, ["airtime", "--sf", "7", "--bw", "125000", "--payload", "10", "--preamble", preamble],
                     f"preamble_symbols must be in [0, 65535], got {preamble}")

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("tx_power_dbm", "14", "tx_power_dbm must be in (-inf, inf), got '14'"),
            ("tx_cable_loss_db", True, "tx_cable_loss_db must be in [0.0, inf), got True"),
        ],
    )
    def test_link_budget_params(self, capsys, caplog, tmp_path, field, value, error):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dataclasses.asdict(DEFAULT_LINK_BUDGET) | {field: value}))
        _refused_run(capsys, caplog, ["link-budget", "--rssi", "-73", "--snr", "0", "--params", str(params)], error)

    def test_link_budget_sf_outside_the_sf_range(self, capsys, caplog):
        # read "unknown spreading factor 13", unlike ingest and predict
        _refused_run(capsys, caplog, ["link-budget", "--rssi", "-80", "--snr", "5", "--sf", "13"],
                     "bad-SF: 13 outside [7, 12]")

    @pytest.mark.parametrize("value, shown", [("2.5", "2.5"), ("true", "True")])
    def test_fit_config_max_iterations(self, capsys, caplog, tmp_path, small_synth_csv, value, shown):
        config = tmp_path / "config.json"
        config.write_text(f'{{"max_iterations": {value}}}')
        argv = ["fit", "--variant", "mw", "--input", str(small_synth_csv), "--out", str(tmp_path / "m.json"),
                "--config", str(config)]
        _refused_run(capsys, caplog, argv, f"max_iterations must be in [1, inf), got {shown}")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("value", ["{}", '""'])
    def test_fit_config_initial_params_not_a_list(self, capsys, caplog, tmp_path, small_synth_csv, value):
        # passed the config, then ended in a TypeError or ValueError traceback
        config = tmp_path / "config.json"
        config.write_text(f'{{"initial_params": {value}}}')
        argv = ["fit", "--variant", "mw", "--input", str(small_synth_csv), "--out", str(tmp_path / "m.json"),
                "--config", str(config)]
        _refused_run(capsys, caplog, argv, f"initial_params must be a list of numbers, got {json.loads(value)!r}")

    def test_simulate_points_past_a_million(self, capsys, caplog):
        # ended in numpy's _ArrayMemoryError traceback
        _refused_run(capsys, caplog, ["simulate", "--seed", "1", "--max-distance", "40", "--points", "1" + "0" * 15],
                     "num_points must be in [1, 1000000], got 1000000000000000")

    def test_predict_env_json_missing_a_reading(self, capsys, caplog, tmp_path):
        # named the first missing reading by the bare repr of a KeyError: 'temperature'
        model = tmp_path / "model.json"
        save_model(PathLossModel(ModelVariant.MW_EP, tuple(EP_PARAMS.values())), model)
        argv = ["predict", "--model", str(model), "--distance", "10", "--freq", "868.1", "--snr", "7.4",
                "--env-json", '{"co2": 550}']
        _refused_run(capsys, caplog, argv, "bad --env-json: missing readings ['temperature', 'humidity', 'pressure',"
                                           " 'pm25'], which the extended variant needs")

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--exponent=-3", "--pl0=1e300"], "reference_loss_db must be in [0.0, 230.0], got 1e+300"),
            (["--pl0=-1e300"], "reference_loss_db must be in [0.0, 230.0], got -1e+300"),
            (["--exponent=1e308"], "path_loss_exponent must be in (0.0, 10.0], got 1e+308"),
            (["--exponent=-3"], "path_loss_exponent must be in (0.0, 10.0], got -3.0"),
            (["--sigma=1e308"], "shadowing_sigma_db must be in [0.0, 230.0], got 1e+308"),
        ],
        ids=["pl0-1e300", "pl0-negative", "exponent-1e308", "exponent-negative", "sigma-1e308"],
    )
    def test_simulate_loss_outside_its_bounds(self, capsys, caplog, flags, error):
        # printed losses of 1e+300 and -1e+300, and inf cells with exponent 1e308 or sigma 1e308
        _refused_run(capsys, caplog, ["simulate", "--seed", "1", "--max-distance", "40", *flags], error)

    def test_pipeline_run_negative_dedup_window(self, capsys, caplog, tmp_path, small_synth_csv):
        # exited 0 and kept every retransmission
        out = tmp_path / "out"
        _refused_run(capsys, caplog, ["pipeline", "run", "--input", str(small_synth_csv), "--out-dir", str(out),
                                      "--dedup-window=-5"], "dedup_window_s must be in [0.0, inf), got -5.0")
        assert not out.exists()
