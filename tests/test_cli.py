import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import loraprop
from loraprop import pipeline
from loraprop.cli import _SCENE_BLOCK, main
from loraprop.link_budget import DEFAULT_LINK_BUDGET
from loraprop.pipeline import csv_lines, ingest, run_pipeline, write_records_csv
from loraprop.propagation import ModelVariant, PathLossModel, SceneSpec, model_to_dict, save_model, simulate_scene
from loraprop.records import CSV_COLUMNS

from helpers import concat, make_table, replace_columns, synth_dataset, use_cpus

SUBCOMMANDS = [
    "airtime",
    "duty-cycle",
    "link-budget",
    "adr-sim",
    "predict",
    "simulate",
    "pipeline",
    "fit",
    "evaluate",
    "cross-validate",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestDispatch:
    def test_airtime_reference_example(self, capsys):
        code, out = run(
            capsys,
            "airtime",
            "--sf",
            "7",
            "--bw",
            "125000",
            "--payload",
            "18",
            "--crc",
            "--implicit-header",
            "--cr",
            "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["toa_ms"] == pytest.approx(46.336, abs=1e-9)
        assert payload["t_symbol_ms"] == pytest.approx(1.024, abs=1e-12)
        assert payload["n_payload"] == 33

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_exits_2(self, capsys):
        assert main(["airtime", "--sf", "seven"]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["airtime", "--sf", "7"]) == 2

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, capsys, name):
        assert main([name, "--help"]) == 0

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_domain_error_exits_1(self, capsys):
        # sf outside 7..12 is a domain error, not a usage error
        assert main(["airtime", "--sf", "6", "--bw", "125000", "--payload", "18"]) == 1

    def test_missing_file_exits_1(self, capsys):
        assert main(["adr-sim", "--trace", "/nonexistent/trace.txt"]) == 1

    @pytest.mark.parametrize("bw", ["1e-300", "100000", "7812.5", "1e9", "-125000"])
    def test_bandwidth_outside_the_lora_set_exits_1(self, capsys, caplog, bw):
        # 1e-300 Hz printed a time on air of 6.4e306 ms
        assert main(["airtime", "--sf", "7", "--bw", bw, "--payload", "18"]) == 1
        assert capsys.readouterr().out == ""
        assert "bw_hz must be a LoRa bandwidth" in caplog.text


class TestNonFiniteValues:
    """JSON has no NaN or infinity: a non-finite flag is a usage error, and a
    non-finite result is a domain error that prints and replaces nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["link-budget", "--rssi", "nan", "--snr", "3"],
            ["predict", "--model", "m.json", "--distance", "inf"],
            ["adr-sim", "--trace", "t.txt", "--power=-inf"],
            ["pipeline", "run", "--input", "x.csv", "--dedup-window", "nan"],
            ["airtime", "--sf", "7", "--bw", "NaN", "--payload", "18"],
        ],
    )
    def test_non_finite_flag_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid finite_float value" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--seed", "-1", "--max-distance", "40"],
            ["pipeline", "run", "--input", "x.csv", "--seed=-1"],
            ["cross-validate", "--variant", "mw", "--input", "x.csv", "--seed", "-7"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        # numpy refused it with a ValueError traceback
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid non_negative_int value" in captured.err
        assert captured.out == ""

    @staticmethod
    def _model(path):
        save_model(PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64)), path)
        return path

    def test_non_finite_result_on_stdout_exits_1(self, capsys, caplog, tmp_path, monkeypatch):
        # finite coefficients can still sum past the float range
        monkeypatch.setattr("loraprop.cli.predict", lambda model, inputs: math.nan)
        model = self._model(tmp_path / "model.json")
        assert main(["predict", "--model", str(model), "--distance", "10"]) == 1
        assert capsys.readouterr().out == ""
        assert "non-finite number" in caplog.text

    def test_non_finite_report_replaces_no_file(self, capsys, caplog, tmp_path, monkeypatch):
        evaluate = loraprop.cli.evaluate_model
        monkeypatch.setattr("loraprop.cli.evaluate_model",
                            lambda model, table: dataclasses.replace(evaluate(model, table), rmse_db=math.nan))
        model = self._model(tmp_path / "model.json")
        data = tmp_path / "data.csv"
        write_records_csv(csv_lines(synth_dataset(rows_per_device=10, seed=4, duplicates_per_device=0).clean), data)
        report = tmp_path / "eval.json"
        report.write_text("earlier report\n")
        before = sorted(tmp_path.iterdir())
        assert main(["evaluate", "--model", str(model), "--input", str(data), "--report", str(report)]) == 1
        assert report.read_text() == "earlier report\n"
        assert sorted(tmp_path.iterdir()) == before  # no manifest, no temporary file
        assert "non-finite number" in caplog.text

    @pytest.mark.parametrize("command", [["predict", "--distance", "10"], ["evaluate", "--input", "data.csv"]])
    def test_non_finite_model_file_exits_1_before_any_output(self, capsys, caplog, tmp_path, command):
        # json.dumps writes NaN by default; this stands for a hand-edited file
        model = tmp_path / "nan.json"
        model.write_text(json.dumps(model_to_dict(PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64)))
                                    | {"intercept_db": math.nan}))
        before = sorted(tmp_path.iterdir())
        assert main([command[0], "--model", str(model), *command[1:]]) == 1
        assert capsys.readouterr().out == ""
        assert sorted(tmp_path.iterdir()) == before
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["intercept_db must be in (-inf, inf), got nan"]

    @pytest.mark.parametrize(
        "coefficients, error",
        [
            ({"intercept_db": 1.7e308, "wall_loss_db": {"brick": 1.7e308, "wood": 2.64}},
             "the predicted path loss overflows the float range"),
            ({"intercept_db": 1e200}, "a metric of the residuals overflows the float range"),
            ({"wall_loss_db": {"brick": 1e103, "wood": 2.64}}, "a metric of the residuals overflows the float range"),
            ({"wall_loss_db": {"brick": 1e104, "wood": 2.64}}, "a metric of the residuals overflows the float range"),
        ],
        ids=["loss", "squares", "cubes", "power"],
    )
    def test_evaluate_a_model_whose_finite_coefficients_overflow(self, capsys, caplog, tmp_path, cleaned_csv,
                                                                  coefficients, error):
        # numpy warned of an overflow in matmul, square or power, and the
        # spread's power of 1.5 ended in an OverflowError traceback
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_dict(PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64)))
                                    | coefficients))
        assert main(["evaluate", "--model", str(model), "--input", str(cleaned_csv)]) == 1
        assert capsys.readouterr().out == ""
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [error]

    def test_predict_a_loss_that_overflows(self, capsys, caplog, tmp_path):
        # printed numpy's overflow warning, then exited 1 as a non-finite result
        model = tmp_path / "model.json"
        save_model(PathLossModel(ModelVariant.MW, (1.7e308, 3.62, 1.7e308, 2.64)), model)
        assert main(["predict", "--model", str(model), "--distance", "10", "--brick", "1"]) == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["the predicted path loss overflows the float range"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_trace_line_exits_1_before_any_output(self, capsys, caplog, tmp_path, value):
        trace = tmp_path / "trace.txt"
        trace.write_text(f"10.0\n{value}\n5.0\n")
        assert main(["adr-sim", "--trace", str(trace)]) == 1
        assert capsys.readouterr().out == ""
        assert f"not a finite number: {value!r}" in caplog.text

class TestDutyCycleCommand:
    def test_schedule_file(self, capsys, tmp_path):
        schedule = tmp_path / "schedule.jsonl"
        entry = {
            "sf": 7,
            "bw_hz": 125000,
            "payload_bytes": 18,
            "cr_index": 1,
            "crc_on": True,
            "implicit_header": True,
            "count": 5,
        }
        schedule.write_text(json.dumps(entry) + "\n")
        code, out = run(capsys, "duty-cycle", "--schedule", str(schedule))
        assert code == 0
        payload = json.loads(out)
        assert payload["total_airtime_ms_per_hour"] == pytest.approx(231.68, abs=1e-6)
        assert payload["duty_cycle_fraction"] == pytest.approx(231.68 / 3.6e6, rel=1e-9)
        assert payload["compliant"] is True

    def test_entry_with_a_bandwidth_outside_the_lora_set_exits_1(self, capsys, caplog, tmp_path):
        schedule = tmp_path / "schedule.jsonl"
        schedule.write_text('{"sf": 7, "bw_hz": 1e-300, "payload_bytes": 18, "count": 5}\n')
        assert main(["duty-cycle", "--schedule", str(schedule)]) == 1
        assert capsys.readouterr().out == ""
        assert "bw_hz must be a LoRa bandwidth" in caplog.text

    @pytest.mark.parametrize("count", ["NaN", "Infinity"])
    def test_non_finite_count_names_the_entry(self, capsys, caplog, tmp_path, count):
        # a NaN count exited 1 with "result holds a non-finite number"
        schedule = tmp_path / "schedule.jsonl"
        schedule.write_text('{"sf": 7, "bw_hz": 125000, "payload_bytes": 18, "count": 5}\n'
                            f'{{"sf": 7, "bw_hz": 125000, "payload_bytes": 18, "count": {count}}}\n')
        assert main(["duty-cycle", "--schedule", str(schedule)]) == 1
        assert capsys.readouterr().out == ""
        assert f"schedule line 2: count must be in [0.0, inf), got {float(count)}" in caplog.text

    @pytest.mark.parametrize("line", ["5", '"sf7"', "null", "[7, 125000]"])
    def test_entry_that_is_not_an_object_exits_1(self, capsys, caplog, tmp_path, line):
        # a scalar line raised AttributeError with a traceback
        schedule = tmp_path / "schedule.jsonl"
        schedule.write_text('{"sf": 7, "bw_hz": 125000, "payload_bytes": 18, "count": 5}\n' + line + "\n")
        assert main(["duty-cycle", "--schedule", str(schedule)]) == 1
        assert capsys.readouterr().out == ""
        assert "schedule line 2: " in caplog.text


class TestLinkBudgetCommand:
    def test_basic(self, capsys):
        code, out = run(capsys, "link-budget", "--rssi", "-73", "--snr", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["esp_dbm"] == pytest.approx(-76.0103, abs=1e-4)
        assert payload["noise_dbm"] == pytest.approx(-76.0103, abs=1e-4)
        assert payload["exp_pl_db"] == pytest.approx(17.26 + 73.0, abs=1e-9)
        assert payload["receivable"] is None

    def test_with_sf(self, capsys):
        code, out = run(capsys, "link-budget", "--rssi", "-73", "--snr", "0", "--sf", "7")
        payload = json.loads(out)
        assert payload["receivable"] is True

    @pytest.mark.parametrize("rssi, snr", [("-200", "-32"), ("30", "32")])
    def test_readings_at_the_ends_of_their_ranges(self, capsys, rssi, snr):
        code, out = run(capsys, "link-budget", "--rssi", rssi, "--snr", snr)
        assert code == 0
        assert json.loads(out)["exp_pl_db"] == pytest.approx(17.26 - float(rssi), abs=1e-9)

    @pytest.mark.parametrize(
        "rssi, snr, reason",
        [
            ("1e308", "3", "bad-rssi: 1e+308 outside [-200.0, 30.0]"),
            ("-200.5", "0", "bad-rssi: -200.5 outside"),
            ("30.5", "0", "bad-rssi: 30.5 outside"),
            ("-73", "-1e300", "bad-snr: -1e+300 outside [-32.0, 32.0]"),
            ("-73", "32.25", "bad-snr: 32.25 outside"),
        ],
    )
    def test_reading_outside_its_physical_range_exits_1(self, capsys, caplog, rssi, snr, reason):
        # 1e308 printed esp_dbm 1e+308 and exited 0
        assert main(["link-budget", f"--rssi={rssi}", f"--snr={snr}"]) == 1
        assert capsys.readouterr().out == ""
        assert reason in caplog.text


    @pytest.mark.parametrize("field", ["tx_power_dbm", "tx_antenna_height_m"])
    def test_non_finite_params_field_is_named(self, capsys, caplog, tmp_path, field):
        # NaN power exited 1 with "result holds a non-finite number", and a NaN
        # antenna height passed the "<= 0" check
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dataclasses.asdict(DEFAULT_LINK_BUDGET) | {field: math.nan}))
        assert main(["link-budget", "--rssi", "-73", "--snr", "0", "--params", str(params)]) == 1
        assert capsys.readouterr().out == ""
        interval = "(0.0, inf)" if field == "tx_antenna_height_m" else "(-inf, inf)"
        assert f"{field} must be in {interval}, got nan" in caplog.text


class TestAdrSimCommand:
    def test_trace_replay(self, capsys, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(["10.0"] * 7))
        code, out = run(capsys, "adr-sim", "--trace", str(trace), "--sf", "12")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 7
        # margin at SF12 with max SNR 10: 10 + 20 - 10 = 20 > 0, so the SF
        # steps down once per frame until the floor
        decisions = [line["decision"] for line in lines]
        assert decisions[:5] == ["lower_sf"] * 5
        assert lines[4]["sf"] == 7
        assert decisions[5] == "no_change"

    @pytest.mark.parametrize(
        "snr, reason",
        [
            ("1e308", "bad-snr: 1e+308 outside [-32.0, 32.0]"),
            ("-32.5", "bad-snr: -32.5 outside"),
        ],
    )
    def test_snr_outside_its_physical_range_exits_1_before_any_output(
        self, capsys, caplog, tmp_path, snr, reason
    ):
        # 1e308 was replayed as a margin of 1e+308 and exited 0
        trace = tmp_path / "trace.txt"
        trace.write_text(f"10.0\n{snr}\n")
        assert main(["adr-sim", "--trace", str(trace)]) == 1
        assert capsys.readouterr().out == ""
        assert reason in caplog.text

    @pytest.mark.parametrize("flags", [["--sf", "5", "--min-sf", "5"], ["--min-sf", "13"]])
    def test_min_sf_outside_the_sf_range_exits_1_before_any_output(self, capsys, caplog, tmp_path, flags):
        # --sf 5 --min-sf 5 failed at the first frame with "unknown spreading
        # factor 5", and --min-sf 13 read "current_sf must be in 13..12"
        trace = tmp_path / "trace.txt"
        trace.write_text("10.0\n")
        assert main(["adr-sim", "--trace", str(trace), *flags]) == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"min_sf must be in [7, 12], got {flags[-1]}"]

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--sf", "7", "--power=-1e300", "--max-power=1e300"],
             "current_power_dbm must be in [-200.0, 30.0], got -1e+300"),
            (["--fade-margin=1e300"], "fade_margin_db must be in [0.0, 64.0], got 1e+300"),
            (["--fade-margin=-1e300"], "fade_margin_db must be in [0.0, 64.0], got -1e+300"),
            (["--power-step=-5"], "power_step_db must be in (0.0, 230.0], got -5.0"),
        ],
    )
    def test_absurd_power_margin_or_step_exits_1_before_any_output(self, capsys, caplog, tmp_path, flags, error):
        # each exited 0, printing a power or margin of +-1e+300 or stepping by -5 dB
        trace = tmp_path / "trace.txt"
        trace.write_text("10.0\n-5\n3\n")
        assert main(["adr-sim", "--trace", str(trace), *flags]) == 1
        assert capsys.readouterr().out == ""
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [error]


EP_MODEL = PathLossModel(
    ModelVariant.MW_EP,
    (5.46, 3.20, 8.52, 2.98, -0.005767, -0.074299, -0.011567, -0.153205, -0.002497, -1.982231),
)


class TestPredictCommand:
    def test_structural_model(self, capsys, tmp_path):
        model = PathLossModel(ModelVariant.MW, (31.30, 3.62, 9.74, 2.64))
        path = tmp_path / "mw.json"
        save_model(model, path)
        code, out = run(
            capsys, "predict", "--model", str(path), "--distance", "10", "--brick", "0"
        )
        assert code == 0
        assert json.loads(out)["path_loss_db"] == pytest.approx(67.50, abs=1e-9)

    def test_extended_model_requires_covariates(self, capsys, tmp_path):
        path = tmp_path / "ep.json"
        save_model(EP_MODEL, path)
        assert main(["predict", "--model", str(path), "--distance", "10"]) == 1
        env = json.dumps(
            {"temperature": 21.0, "humidity": 38.0, "pressure": 323.0, "pm25": 2.0, "co2": 550.0}
        )
        code, out = run(
            capsys,
            "predict",
            "--model", str(path),
            "--distance", "10",
            "--freq", "868.1",
            "--env-json", env,
            "--snr", "7.4",
        )
        assert code == 0
        assert json.loads(out)["path_loss_db"] > 0

    def test_unknown_wall_material_exits_1(self, capsys, caplog, tmp_path):
        # the concrete loss was loaded, never used, and 77.24 printed with exit 0
        model = PathLossModel(ModelVariant.MW, (31.30, 3.62, 9.74, 2.64))
        path = tmp_path / "mw.json"
        walls = {"brick": 9.74, "wood": 2.64, "concrete": 30.0}
        path.write_text(json.dumps(model_to_dict(model) | {"wall_loss_db": walls}))
        assert main(["predict", "--model", str(path), "--distance", "10", "--brick", "1"]) == 1
        assert capsys.readouterr().out == ""
        assert "unknown wall materials: ['concrete']" in caplog.text

    @pytest.mark.parametrize(
        "snr, reason",
        [
            ("1e300", "bad-snr: 1e+300 outside [-32.0, 32.0]"),
            ("32.5", "bad-snr: 32.5 outside"),
        ],
    )
    def test_snr_outside_its_physical_range_exits_1(self, capsys, caplog, tmp_path, snr, reason):
        # --snr 1e300 printed a path loss of -1.98e+300 and exited 0
        path = tmp_path / "ep.json"
        save_model(EP_MODEL, path)
        env = '{"temperature": 21, "humidity": 38, "pressure": 323, "pm25": 2, "co2": 550}'
        assert main(["predict", "--model", str(path), "--distance", "10", "--freq", "868.1",
                     "--env-json", env, f"--snr={snr}"]) == 1
        assert capsys.readouterr().out == ""
        assert reason in caplog.text


    @pytest.mark.parametrize(
        "flags, env, reason",
        [
            ([], {"co2": 1e300}, "bad-co2: 1e+300 outside [0.0, 1000000.0]"),
            ([], {"humidity": 120}, "bad-humidity: 120.0 outside [0.0, 100.0]"),
            ([], {"temperature": math.inf}, "bad-temperature: inf outside"),
            (["--freq", "1e300"], {}, "bad-frequency: 1e+300 outside [137.0, 1020.0]"),
        ],
        ids=["co2-1e300", "humidity-120", "temperature-Infinity", "freq-1e300"],
    )
    def test_input_outside_its_column_range_exits_1(self, capsys, caplog, tmp_path, flags, env, reason):
        # co2 1e300 printed a path loss of -2.5e+297 and --freq 1e300 one of
        # 6074.968, both with exit 0
        path = tmp_path / "ep.json"
        save_model(EP_MODEL, path)
        env = json.dumps({"temperature": 21, "humidity": 38, "pressure": 323, "pm25": 2, "co2": 550} | env)
        assert main(["predict", "--model", str(path), "--distance", "10", "--freq", "868.1",
                     "--env-json", env, "--snr", "7.4", *flags]) == 1
        assert capsys.readouterr().out == ""
        assert reason in caplog.text

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--freq", "1e300", "--env-json", '{"co2": 1e300}'], "bad-frequency: 1e+300 outside [137.0, 1020.0]"),
            (["--env-json", '{"co2": 1e300}'], "bad-co2: 1e+300 outside [0.0, 1000000.0]"),
            (["--env-json", "not json"], "bad --env-json: Expecting value"),
            (["--env-json", "[550]"], "bad --env-json: not a JSON object"),
            (["--env-json", '{"co2": 1%s}' % ("0" * 400)], "bad --env-json: int too large"),
            (["--snr", "32.5"], "bad-snr: 32.5 outside [-32.0, 32.0]"),
        ],
        ids=["freq-and-co2-1e300", "co2-1e300", "not-json", "not-an-object", "co2-overflows", "snr-32.5"],
    )
    def test_structural_model_checks_every_reading_it_is_given(self, capsys, caplog, tmp_path, flags, reason):
        # the structural variant ignored --freq and --env-json unread: the
        # first two cases and "not json" printed 67.5 with exit 0
        path = tmp_path / "mw.json"
        save_model(PathLossModel(ModelVariant.MW, (31.30, 3.62, 9.74, 2.64)), path)
        assert main(["predict", "--model", str(path), "--distance", "10", *flags]) == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(reason)

    def test_structural_model_takes_in_range_readings(self, capsys, tmp_path):
        path = tmp_path / "mw.json"
        save_model(PathLossModel(ModelVariant.MW, (31.30, 3.62, 9.74, 2.64)), path)
        code, out = run(capsys, "predict", "--model", str(path), "--distance", "10", "--freq", "868.1",
                        "--snr", "3", "--env-json", '{"co2": 550, "humidity": 38}')
        assert code == 0
        assert json.loads(out)["path_loss_db"] == pytest.approx(67.50, abs=1e-9)


class TestSimulateCommand:
    def test_csv_to_stdout(self, capsys):
        code, out = run(
            capsys, "simulate", "--seed", "3", "--max-distance", "40", "--points", "10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "distance,true_pl,noisy_pl,walls_crossed"
        assert len(lines) == 11

    def test_deterministic_output_files(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["simulate", "--seed", "9", "--max-distance", "40"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.manifest.json").exists()

    @pytest.mark.parametrize("points", [1, _SCENE_BLOCK, _SCENE_BLOCK + 1, 2 * _SCENE_BLOCK + 5])
    def test_rows_written_a_block_at_a_time_match_the_whole_text(self, capsys, tmp_path, points):
        # the CSV was once formatted whole and written in one call
        scene = simulate_scene(SceneSpec(max_distance_m=2e4, num_points=points), 1)
        crossed = scene["c_walls"] + scene["w_walls"]
        rows = zip(*(c.tolist() for c in (scene["distance"], scene["true_pl"], scene["noisy_pl"], crossed)))
        lines = ["distance,true_pl,noisy_pl,walls_crossed"]
        lines += (f"{d!r},{pl!r},{noisy!r},{walls}" for d, pl, noisy, walls in rows)
        text = "\n".join(lines) + "\n"
        argv = ["simulate", "--seed", "1", "--max-distance", "2e4", "--points", str(points)]
        out = tmp_path / "scene.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--d0", "0"], "reference_distance_m must be in (0.0, inf), got 0.0"),
            (["--d0=-1"], "reference_distance_m must be in (0.0, inf), got -1.0"),
            (["--max-distance", "1e17"], "2.5e+16 walls at the minimum wall spacing exceed the 1000000"),
        ],
        ids=["d0-zero", "d0-negative", "max-distance-1e17"],
    )
    def test_invalid_scene_exits_1_before_any_output(self, capsys, caplog, flags, reason):
        # d0 = 0 printed nan/inf rows, d0 = -1 raised a math domain error and
        # 1e17 m never ended
        assert main(["simulate", "--seed", "3", "--max-distance", "40"] + flags) == 1
        assert capsys.readouterr().out == ""
        assert reason in caplog.text


@pytest.fixture(scope="module")
def cleaned_csv(tmp_path_factory):
    """Small cleaned dataset produced by the pipeline itself."""
    root = tmp_path_factory.mktemp("cli_data")
    raw = root / "raw.csv"
    data = synth_dataset(rows_per_device=120, seed=13, duplicates_per_device=2)
    write_records_csv(csv_lines(data.records), raw)
    out = root / "out"
    run_pipeline(raw, out, seed=42, contamination=0.05)
    return out / "cleaned.csv"


class TestPipelineCommand:
    def test_run_and_rerun_byte_identical(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        data = synth_dataset(rows_per_device=80, seed=21, duplicates_per_device=1)
        write_records_csv(csv_lines(data.records), raw)
        out = tmp_path / "out"
        argv = [
            "pipeline", "run",
            "--input", str(raw),
            "--out-dir", str(out),
            "--seed", "42",
            "--contamination", "0.05",
        ]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        assert set(first) == {"cleaned.csv", "train.csv", "test.csv", "manifest.json"}

    def test_out_dir_env_override(self, capsys, tmp_path, monkeypatch):
        raw = tmp_path / "raw.csv"
        data = synth_dataset(rows_per_device=60, seed=2, duplicates_per_device=0)
        write_records_csv(csv_lines(data.records), raw)
        target = tmp_path / "from_env"
        monkeypatch.setenv("LORAPROP_OUT_DIR", str(target))
        assert main(["pipeline", "run", "--input", str(raw), "--contamination", "0.05"]) == 0
        assert (target / "cleaned.csv").exists()

    def test_timezone_offset_row_is_rejected_as_bad_time(self, capsys, tmp_path):
        data = synth_dataset(rows_per_device=60, seed=2, duplicates_per_device=0)
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(data.records), raw)
        lines = raw.read_text().splitlines()
        lines[5] = lines[5].replace("2024-01-01 00:04:00", "2024-01-01 00:04:00+02:00")
        assert "+02:00" in lines[5]
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(out),
                "--contamination", "0.05"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rejections_by_reason"] == {"bad-time": 1}
        assert manifest["counts"]["ingested"] == len(data.records) - 1

    def test_humidity_outside_its_range_is_rejected(self, capsys, tmp_path):
        # a humidity of 120 % was ingested and screened
        data = synth_dataset(rows_per_device=60, seed=2, duplicates_per_device=0)
        humidity = data.records["humidity"].copy()
        humidity[5] = 120.0
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(replace_columns(data.records, humidity=humidity)), raw)
        out = tmp_path / "out"
        assert main(["pipeline", "run", "--input", str(raw), "--out-dir", str(out), "--contamination", "0.05"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rejections_by_reason"] == {"bad-humidity": 1}
        assert manifest["counts"]["ingested"] == len(data.records) - 1

    def test_date_and_time_separated_by_another_character_is_bad_time(self, capsys, tmp_path):
        # fromisoformat takes any separator: this row was ingested as 00:04
        data = synth_dataset(rows_per_device=60, seed=2, duplicates_per_device=0)
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(data.records), raw)
        lines = raw.read_text().splitlines()
        lines[5] = lines[5].replace("2024-01-01 00:04:00", "2024-01-01Q00:04:00")
        assert "Q00:04" in lines[5]
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["pipeline", "run", "--input", str(raw), "--out-dir", str(out), "--contamination", "0.05"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rejections_by_reason"] == {"bad-time": 1}
        assert manifest["counts"]["ingested"] == len(data.records) - 1

    def test_device_with_a_constant_sensor_column_is_screened_on_the_others(
        self, capsys, tmp_path, caplog
    ):
        data = synth_dataset(rows_per_device=80, seed=21, duplicates_per_device=0)
        records = data.records
        pm25 = np.where(records["device_id"] == "dev2", 5.0, records["pm25"])
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(replace_columns(records, pm25=pm25)), raw)
        out = tmp_path / "out"
        argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(out),
                "--contamination", "0.05"]
        assert main(argv) == 0
        per_device = json.loads((out / "manifest.json").read_text())["per_device"]
        assert per_device["dev2"]["constant_features"] == ["pm25"]
        assert per_device["dev2"]["anomalies"] == round(0.05 * per_device["dev2"]["rows"]) == 4
        assert all("constant_features" not in per_device[d] for d in per_device if d != "dev2")
        assert "device dev2 has constant feature(s) ['pm25']" in caplog.text

    def test_feature_whose_mean_overflows_is_left_out_of_the_screen(self, capsys, tmp_path, caplog):
        # two temperatures of 1.7e308 overflow dev2's mean; the standardised
        # column used to be all NaN, which no tree can split, so every
        # output byte is as it was when the column stayed in
        data = synth_dataset(rows_per_device=80, seed=21, duplicates_per_device=0)
        records = data.records
        temperature = records["temperature"].copy()
        temperature[np.flatnonzero(records["device_id"] == "dev2")[:2]] = 1.7e308
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(replace_columns(records, temperature=temperature)), raw)
        out = tmp_path / "out"
        argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(out),
                "--contamination", "0.05"]
        assert main(argv) == 0
        digests = {name: hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
                   for name in ("cleaned", "train", "test")}
        assert digests == {
            "cleaned": "892c3845da5a25fd87d11dde81e7e601d0d3be373b8c7553bdfc347f28b414f9",
            "train": "633e5d0fd938883c5778b53a97350bd144aef34c982367592d440a54ada39586",
            "test": "69e6ac09e7c17d035651c1dfa75f4e3abe38cb58ecb8a1de66f08877c72cbb84",
        }
        assert "device dev2 has feature(s) ['temperature'] that cannot be standardised" in caplog.text

    def test_test_fraction_that_empties_a_side_is_domain_error(self, capsys, tmp_path, caplog):
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(synth_dataset(rows_per_device=40, seed=2, duplicates_per_device=0).records), raw)
        argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(tmp_path / "out"),
                "--test-fraction", "0.999"]
        assert main(argv) == 1
        assert "leaves one side empty" in caplog.text

    def test_utf8_bom_before_the_header_is_read(self, capsys, tmp_path):
        data = synth_dataset(rows_per_device=40, seed=2, duplicates_per_device=0)
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_records_csv(csv_lines(data.records), plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for raw in (plain, bom):
            out = tmp_path / f"out_{raw.stem}"
            assert main(["pipeline", "run", "--input", str(raw), "--out-dir", str(out),
                         "--contamination", "0.05"]) == 0
            outputs.append({name: (out / f"{name}.csv").read_bytes() for name in ("cleaned", "train", "test")})
        assert outputs[0] == outputs[1]
        manifest = json.loads((tmp_path / "out_bom" / "manifest.json").read_text())
        assert manifest["counts"]["rejected"] == 0

    def test_non_ascii_id_gives_the_same_bytes_under_the_c_locale(self, capsys, tmp_path):
        data = synth_dataset(rows_per_device=40, seed=2, duplicates_per_device=0)
        ids = np.where(data.records["device_id"] == "dev2", "n\u00f6de02", data.records["device_id"])
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(replace_columns(data.records, device_id=ids)), raw)
        out = tmp_path / "out"
        argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(out), "--contamination", "0.05"]
        assert main(argv) == 0
        names = ("cleaned.csv", "train.csv", "test.csv", "manifest.json")
        utf8_run = {name: (out / name).read_bytes() for name in names}
        assert "n\u00f6de02".encode() in utf8_run["cleaned.csv"]

        src = str(Path(loraprop.__file__).resolve().parents[1])
        env = os.environ | {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = ("import locale, sys; from loraprop.cli import main; "
                  "print(locale.getpreferredencoding(False)); sys.exit(main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0].lower().replace("-", "") not in ("utf8", "utf_8")
        assert {name: (out / name).read_bytes() for name in names} == utf8_run

    def test_bytes_that_are_not_utf8_are_bad_encoding_rejections(self, capsys, tmp_path):
        data = synth_dataset(rows_per_device=40, seed=2, duplicates_per_device=0)
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(data.records), raw)
        lines = raw.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b",dev", b",d\xffv", 1)
        cells = lines[7].split(b",")
        cells[CSV_COLUMNS.index("rssi")] = b"-7\xff5"
        lines[7] = b",".join(cells)
        raw.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(out), "--contamination", "0.05"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rejections_by_reason"] == {"bad-encoding": 2}
        assert manifest["counts"]["ingested"] == len(data.records) - 2
        report = tmp_path / "fit.json"
        argv = ["fit", "--variant", "mw", "--input", str(raw), "--out", str(tmp_path / "m.json"), "--report", str(report)]
        assert main(argv) == 0
        assert json.loads(report.read_text())["n_observations"] == len(data.records) - 2
        assert main(["evaluate", "--model", str(tmp_path / "m.json"), "--input", str(raw)]) == 0
        assert main(["cross-validate", "--variant", "mw", "--input", str(raw)]) == 0

    def test_field_over_the_csv_limit_is_one_oversized_field_rejection(self, capsys, tmp_path):
        data = synth_dataset(rows_per_device=40, seed=2, duplicates_per_device=0)
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(data.records), raw)
        lines = raw.read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace(",dev", "," + "d" * 200_000, 1)
        raw.write_text("".join(lines))
        out = tmp_path / "out"
        argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(out), "--contamination", "0.05"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rejections_by_reason"] == {"oversized-field": 1}
        assert manifest["counts"]["rows_read"] == len(data.records)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command", ["fit", "pipeline run"])
    def test_header_field_over_the_csv_limit_exits_1(
        self, capsys, caplog, tmp_path, monkeypatch, command, cpus
    ):
        # the csv module's error ended the command in a traceback
        raw = tmp_path / "h.csv"
        raw.write_text('"' + "a" * 200_000 + '"\n' + "x\n" * 100)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "out"
        if command == "fit":
            argv = ["fit", "--variant", "mw", "--input", str(raw), "--out", str(out / "m.json")]
        else:
            argv = ["pipeline", "run", "--input", str(raw), "--out-dir", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert "malformed header: field larger than field limit (131072)" in caplog.text
        assert not out.exists()

    def test_failed_run_leaves_no_out_dir(self, caplog, tmp_path):
        raw = tmp_path / "h.csv"
        raw.write_text("time,device_id\n")
        out = tmp_path / "o"
        assert main(["pipeline", "run", "--input", str(raw), "--out-dir", str(out)]) == 1
        assert "malformed header" in caplog.text
        assert not out.exists()

    def test_missing_out_dir_is_domain_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("LORAPROP_OUT_DIR", raising=False)
        assert main(["pipeline", "run", "--input", "whatever.csv"]) == 1


@pytest.fixture(scope="module")
def small_raw():
    """The bytes of a valid 40-row CSV, 8 rows from each of five devices."""
    lines = csv_lines(synth_dataset(rows_per_device=8, seed=2, duplicates_per_device=0).records)
    return (",".join(CSV_COLUMNS) + "\n" + "".join(lines)).encode("utf-8")


def run_on_bytes(data: bytes, tmp_path, capsys, caplog) -> tuple[int, dict | None]:
    """``pipeline run`` on a file of ``data``: the exit code and the
    manifest's counts with its rejections by reason as ``reasons``, or None
    when it wrote none.  No traceback may be printed or logged, and exit
    code 1 comes with one logged error."""
    raw, out = tmp_path / "mutated.csv", tmp_path / "out"
    raw.write_bytes(data)
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    caplog.clear()
    code = main(["pipeline", "run", "--input", str(raw), "--out-dir", str(out), "--contamination", "0.05"])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err + caplog.text
    if code == 1:
        assert [record.levelname for record in caplog.records if record.levelname == "ERROR"] == ["ERROR"]
        return code, None
    manifest = json.loads((out / "manifest.json").read_text())
    return code, manifest["counts"] | {"reasons": manifest["rejections_by_reason"]}


#: What a mutation inserts: a quote (most often), a NUL, a byte-order mark,
#: bytes that are not UTF-8, line ends and a comma, or random bytes.
_PIECES = st.sampled_from([b'"'] * 4 + [b"\x00", b"\xef\xbb\xbf", b"\xff", b"\xe2\x82", b"\r", b"\n", b","]) \
    | st.binary(min_size=1, max_size=3)
#: ``(kind, position, piece)``: insert the piece, open a quote at the start
#: of the next cell, insert a cell over the csv module's limit, start the
#: file with a byte-order mark, or end every line with a CR only.
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["insert"] * 4 + ["quote"] * 2 + ["huge", "bom", "cr"]), st.integers(0, 2**16), _PIECES),
    min_size=1, max_size=3,
)


class TestMutatedInput:
    """Whatever bytes it reads, ``pipeline run`` ends in a result or a
    domain error, and each physical line is one record."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=_MUTATIONS)
    def test_mutated_bytes_end_in_a_result_or_a_domain_error(self, capsys, caplog, tmp_path, small_raw, mutations):
        data = small_raw
        for kind, position, piece in mutations:
            at = position % (len(data) + 1)
            if kind == "quote":
                at, piece = data.find(b",", at) + 1, b'"'
            elif kind == "huge":
                piece = b"0" * (csv.field_size_limit() + 1)
            if kind == "bom":
                data = b"\xef\xbb\xbf" + data
            elif kind == "cr":
                data = data.replace(b"\r\n", b"\n").replace(b"\n", b"\r")
            else:
                data = data[:at] + piece + data[at:]
        code, counts = run_on_bytes(data, tmp_path, capsys, caplog)
        if code == 0:
            assert counts["rows_read"] == counts["ingested"] + counts["rejected"]
            # every line after the header that is not empty is one row read
            assert counts["rows_read"] == sum(1 for line in data.splitlines()[1:] if line)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=st.integers(1, 40), cell=st.integers(0, len(CSV_COLUMNS) - 1))
    def test_a_stray_quote_costs_exactly_one_row(self, capsys, caplog, tmp_path, small_raw, line, cell):
        lines = small_raw.splitlines(keepends=True)
        cells = lines[line].split(b",")
        cells[cell] = b'"' + cells[cell]  # it opens a quote that does not close on the line
        lines[line] = b",".join(cells)
        code, counts = run_on_bytes(b"".join(lines), tmp_path, capsys, caplog)
        assert code == 0
        assert (counts["rows_read"], counts["ingested"], counts["reasons"]) == (40, 39, {"bad-csv": 1})

    @pytest.mark.parametrize("cpus", [1, 2], ids=["one range", "two ranges"])
    def test_quote_before_a_row_rejects_that_row_only(self, capsys, caplog, tmp_path, monkeypatch, cpus):
        # a stray quote once made the rest of the file one record: 4 rows read, 3 ingested
        data = synth_dataset(rows_per_device=40, seed=2, duplicates_per_device=0)
        raw = tmp_path / "raw.csv"
        write_records_csv(csv_lines(data.records), raw)
        lines = raw.read_text().splitlines(keepends=True)
        lines[4] = '"' + lines[4]
        raw.write_text("".join(lines))
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(pipeline, "_MIN_RANGE_BYTES", 1)
        assert len(pipeline._ranges(raw)) == cpus
        caplog.set_level(logging.DEBUG, logger="loraprop.pipeline")
        out = tmp_path / "out"
        assert main(["pipeline", "run", "--input", str(raw), "--out-dir", str(out), "--contamination", "0.05"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["rows_read"] == 200
        assert manifest["counts"]["ingested"] == 199
        assert manifest["rejections_by_reason"] == {"bad-csv": 1}
        assert "rejected row 4: quote not closed on its line" in caplog.text


class TestFitCommand:
    def test_fit_then_evaluate(self, capsys, tmp_path, cleaned_csv):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "fit",
                "--variant", "mw-ep",
                "--input", str(cleaned_csv),
                "--out", str(model_path),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["converged"] is True
        assert set(report["params"]) >= {"intercept_db", "path_loss_exponent", "snr_coeff"}
        assert (tmp_path / "model.manifest.json").exists()

        code, out = run(
            capsys, "evaluate", "--model", str(model_path), "--input", str(cleaned_csv)
        )
        assert code == 0
        evaluation = json.loads(out)
        assert evaluation["rmse_db"] > 0
        assert evaluation["n_observations"] == json.loads(report_path.read_text())["n_observations"]

    def test_underdetermined_fit_exits_1(self, capsys, tmp_path):
        tiny = tmp_path / "tiny.csv"
        write_records_csv(csv_lines(make_table(f_count=[0, 1])), tiny)
        code = main(
            ["fit", "--variant", "mw", "--input", str(tiny), "--out", str(tmp_path / "m.json")]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_row_below_reference_distance_exits_1(self, capsys, caplog, tmp_path, command):
        records = synth_dataset(rows_per_device=10, seed=4, duplicates_per_device=0).clean
        near = tmp_path / "near.csv"
        write_records_csv(csv_lines(concat(records, make_table(distance=0.5))), near)
        if command == "fit":
            argv = ["fit", "--variant", "mw", "--input", str(near), "--out", str(tmp_path / "m")]
        else:
            model = tmp_path / "model.json"
            save_model(
                PathLossModel(ModelVariant.MW, (31.3, 3.62, 9.74, 2.64)), model
            )
            argv = ["evaluate", "--model", str(model), "--input", str(near)]
        assert main(argv) == 1
        assert "distance 0.5 m is below the reference distance" in caplog.text

    def test_non_positive_frequency_row_is_rejected_at_ingest(self, capsys, tmp_path):
        records = synth_dataset(rows_per_device=10, seed=4, duplicates_per_device=0).clean
        bad = tmp_path / "bad.csv"
        write_records_csv(csv_lines(concat(records, make_table(frequency=0.0))), bad)
        report = tmp_path / "fit.json"
        argv = [
            "fit", "--variant", "mw-ep", "--input", str(bad),
            "--out", str(tmp_path / "m.json"), "--report", str(report),
        ]
        assert main(argv) == 0
        assert json.loads(report.read_text())["n_observations"] == len(records)

    def test_co2_outside_its_range_is_rejected_at_ingest_and_the_fit_runs(self, capsys, tmp_path):
        # one co2 of 1e160 in 300 rows was ingested, and the mw-ep fit then
        # exited 1 as rank-deficient
        records = synth_dataset(rows_per_device=60, seed=4, duplicates_per_device=0).clean
        records = records.take(np.arange(300))
        co2 = records["co2"].copy()
        co2[150] = 1e160
        path = tmp_path / "co2.csv"
        write_records_csv(csv_lines(replace_columns(records, co2=co2)), path)
        assert [(r.line, r.reason) for r in ingest(path).rejections] == [(151, "bad-co2")]
        report = tmp_path / "fit.json"
        argv = ["fit", "--variant", "mw-ep", "--input", str(path), "--out", str(tmp_path / "m.json"),
                "--report", str(report)]
        assert main(argv) == 0
        assert json.loads(report.read_text())["n_observations"] == 299

    @pytest.mark.parametrize(
        "config, reason",
        [
            ('{"rss_tolerance": NaN}', "rss_tolerance must be in (0.0, inf), got nan"),
            ('{"damping_initial": Infinity}', "damping_initial must be in (0.0, inf), got inf"),
            ('{"initial_params": [40, 3.5, NaN, 3]}', "initial_params[2] must be in (-inf, inf), got nan"),
        ],
    )
    def test_non_finite_fit_config_exits_1(self, capsys, caplog, tmp_path, cleaned_csv, config, reason):
        # NaN passed the range checks: the fit ran its 100,000 iterations and
        # exited 0, and an infinite damping wrote the starting coefficients
        path = tmp_path / "config.json"
        path.write_text(config)
        model = tmp_path / "m.json"
        argv = ["fit", "--variant", "mw", "--input", str(cleaned_csv), "--out", str(model), "--config", str(path)]
        assert main(argv) == 1
        assert reason in caplog.text
        assert not model.exists()

    def test_initial_params_whose_residuals_overflow_exit_1_without_a_warning(self, tmp_path):
        # printed seven numpy RuntimeWarnings, then exited 1 with
        # "shadowing_sigma_db must be in [0.0, inf), got nan"
        data = tmp_path / "data.csv"
        write_records_csv(csv_lines(synth_dataset(rows_per_device=50, seed=4, duplicates_per_device=0).clean), data)
        config = tmp_path / "config.json"
        config.write_text('{"initial_params": [1.7e308, 3.5, 1.7e308, 3.0]}')
        src = str(Path(loraprop.__file__).resolve().parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["fit", "--variant", "mw", "--input", str(data), "--config", str(config),
                "--out", str(tmp_path / "m.json")]
        done = subprocess.run([sys.executable, "-m", "loraprop.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        assert [line for line in done.stderr.splitlines() if line.startswith("ERROR")] == [
            "ERROR loraprop: a computation left the float range: overflow encountered in matmul"
        ]
        assert not (tmp_path / "m.json").exists()

    def test_refit_is_byte_identical(self, capsys, tmp_path, cleaned_csv):
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            assert main(
                ["fit", "--variant", "mw", "--input", str(cleaned_csv), "--out", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fit_config_that_is_not_utf8_exits_1(self, capsys, caplog, tmp_path, cleaned_csv):
        # a UnicodeDecodeError traceback before
        path = tmp_path / "config.json"
        path.write_bytes(b'{"rss_tolerance": 1e-9, "x": "\xff"}')
        model = tmp_path / "m.json"
        argv = ["fit", "--variant", "mw", "--input", str(cleaned_csv), "--out", str(model), "--config", str(path)]
        assert main(argv) == 1
        assert f"{path} is not UTF-8 text: byte 30" in caplog.text
        assert not model.exists()

    def test_model_file_that_is_not_utf8_exits_1(self, capsys, caplog, tmp_path):
        # a UnicodeDecodeError traceback before
        path = tmp_path / "model.json"
        path.write_bytes(b'{"variant": "mw\xff"}')
        assert main(["predict", "--model", str(path), "--distance", "10"]) == 1
        assert capsys.readouterr().out == ""
        assert f"{path} is not UTF-8 text: byte 15" in caplog.text

    def test_schedule_that_is_not_utf8_exits_1(self, capsys, caplog, tmp_path):
        path = tmp_path / "schedule.jsonl"
        path.write_bytes(b'{"sf": 7, "bw_hz": 125000, "payload_bytes": 18, "count": 5, "x": "\xff"}\n')
        assert main(["duty-cycle", "--schedule", str(path)]) == 1
        assert "schedule line 1: 'utf-8' codec can't decode byte 0xff" in caplog.text

    def test_malformed_model_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"variant": "mw"}')  # missing every coefficient
        assert main(["predict", "--model", str(bad), "--distance", "10"]) == 1
        bad.write_text("not json at all")
        assert main(["predict", "--model", str(bad), "--distance", "10"]) == 1


class TestCrossValidateCommand:
    def test_prints_folds_and_aggregate(self, capsys, cleaned_csv):
        code, out = run(
            capsys,
            "cross-validate",
            "--variant", "mw",
            "--input", str(cleaned_csv),
            "--folds", "5",
            "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["folds"]) == 5
        assert "validation_rmse_db" in payload["aggregate"]
        assert payload["aggregate"]["validation_rmse_db"]["std"] >= 0.0
