"""Characterization test: pins the bytes the pipeline and the model commands
write for two seeded corpora.

A refactor must keep every digest here.  A change that moves one of them
changed an output, and is either a bug or a behaviour change that has to be
declared and re-pinned on purpose.

- The A7 corpus: 10k synthetic rows from five devices, 25 injected
  retransmissions, pipeline seed 42.
- A small corpus with rejected rows, sub-second timestamps and SF 11/12 rows.

The pipeline runs from inside its output's parent directory with relative
paths, because ``manifest.json`` records the paths it was given.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from loraprop.cli import main
from loraprop.fitting import fit
from loraprop.pipeline import csv_lines, ingest, run_pipeline, write_records_csv
from loraprop.propagation import ModelVariant

from helpers import replace_columns, synth_dataset

PIPELINE_FILES = ("cleaned.csv", "train.csv", "test.csv", "manifest.json")


@contextmanager
def _cwd(path: Path):
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _digests(directory: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def a7_run(tmp_path_factory, a7_corpus):
    root = tmp_path_factory.mktemp("a7")
    shutil.copyfile(a7_corpus[1], root / "a7.csv")
    with _cwd(root):
        run_pipeline("a7.csv", "out", seed=42, contamination=0.01)
    return root


def _small_corpus_records():
    """Synthetic rows with SF 7-12, three in four shifted by a sub-second
    offset; the malformed rows in :data:`_SMALL_BAD_ROWS` go after them."""
    records = synth_dataset(
        rows_per_device=40, seed=5, duplicates_per_device=2, sf_cycle=(7, 8, 9, 10, 11, 12)
    ).records
    shift = np.arange(len(records)) % 4 * np.timedelta64(250, "ms")
    return replace_columns(records, time=records["time"] + shift)


_SMALL_BAD_ROWS = (
    "2024-01-01 00:00:00,dev0,550,38,2,323,21,,8,7,868.1,1,1,0.05,10,0,0,92,-83,-75",
    "2024-01-01 00:00:00,dev0,550,38,2,323,21,abc,8,7,868.1,1,1,0.05,10,0,0,92,-83,-75",
    "2024-01-01 00:00:00,dev0,550,38,2,323,21,-75,8,7,868.1,1,1,0.05,10,0,0,92,-83",
    "2024-01-01 00:00:00,dev0,550,38,2,323,21,nan,8,7,868.1,1,1,0.05,10,0,0,92,-83,-75",
    "2024-01-01 00:00:00,dev0,550,38,2,323,21,-75,8,13,868.1,1,1,0.05,10,0,0,92,-83,-75",
    "2024-01-01 00:00:00,dev0,550,38,2,323,21,-75,8,7,868.1,1,1,0.05,-3,0,0,92,-83,-75",
    "2024-13-01 00:00:00,dev0,550,38,2,323,21,-75,8,7,868.1,1,1,0.05,10,0,0,92,-83,-75",
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    raw = root / "small.csv"
    write_records_csv(csv_lines(_small_corpus_records()), raw)
    with open(raw, "a") as handle:
        handle.write("\n".join(_SMALL_BAD_ROWS) + "\n")
    with _cwd(root):
        result = run_pipeline("small.csv", "out", seed=42, contamination=0.05)
    return root, result


#: Digests of the raw corpora the pipeline reads: the test fixtures that
#: build them must not drift either.
INPUTS = {
    "a7.csv": "3c45c67a025e247217562a1eb1ec0d76a7532f4cfd1bfa52d79c1d4e23584c23",
    "small.csv": "a694691305de786d45807aaab3cdbfe7879425f6e8b4e1c952df1bdba27c9341",
}

A7_PIPELINE = {
    "cleaned.csv": "0758a5127e40913e5553aed80e130ccb94f2d1dce9b50192dace90e0ef6487bb",
    "train.csv": "934cb10ac79c877292bf64e5ae7f28ff46088ab91ef1e4ac73b2659be8f0b070",
    "test.csv": "1c0e299dd7d28d03554777482c0eccb722c99a2a3668444615787bc31f9453d5",
    "manifest.json": "3826334127f24284577eed566590ab299a2a65764cd2469aa5ea793548da6408",
}

SMALL_PIPELINE = {
    "cleaned.csv": "c988efdc94a78a45ed0199fa4f077b90c539079c9e8f11069a069383046caa33",
    "train.csv": "e5604585b9446be6913e54d137e7fd29cf418c1a4986772cc1ff82c461499180",
    "test.csv": "f02955425a6b9b88f418211a25214068160a145bd11f1574e0ae3e1797c1fd93",
    "manifest.json": "712e231bc245719b6f87b9a38c0aa0199bd87216d62dea1ae2e269db2824524b",
}

#: Fitted coefficients on the A7 train split, in parameter order.
A7_PARAMS = {
    ModelVariant.MW: [
        42.50431598516973, 2.9383843378513834, 6.6844010448674425, 3.1582696686936984,
    ],
    ModelVariant.MW_EP: [
        4.605965604562688, 3.1549658556647033, 7.561745814796703, 2.914628129078415,
        0.006000567195440721, -0.05713754501919084, -0.012777166216762868,
        -0.12493522542645517, -0.002275024313733921, -1.9544710406805434,
    ],
}

#: Digests of the JSON the CLI writes for the A7 train/test split.
A7_CLI = {
    "mw.model.json": "4333554fdcb268f621758ebf0f2475e1e79b5d148322fe23ca4b6a89f21e75da",
    "mw.fit.json": "7947b66d50e9a2093e56afacf9358e9667995f0fba43fe3276180194e96022ae",
    "mw.eval.json": "52d6e789b0bbfc5751517cdde70b9ecf60fa673bbc900e1381bb772b05ba66f7",
    "mw.cv.json": "2acad4a1dbd2b402ad0b03cf7e14c3ffaf04b518fa7481bb38e8fb0044354f05",
    "mw-ep.model.json": "eeba8e6aaeb9e4b8bcf1eebacf9c95090b81db40863c108e0668d2efcdcd036f",
    "mw-ep.fit.json": "e426a1380970271c97cd1b813e38692f0b3d82dce48e2c224d3bb9735f1d1de7",
    "mw-ep.eval.json": "84b4bbfb9f3aed28467201ca1bd5ae48f409d0dbad1cd9ed6f0c7d09b2651c25",
    "mw-ep.cv.json": "bd2af686639ea503e3622b3e168f32dc89ff58d7b0346a1eb5d8f7b45fa9d539",
}


def test_input_corpora_pinned(a7_run, small_run):
    root, _ = small_run
    assert _digests(a7_run, ["a7.csv"]) | _digests(root, ["small.csv"]) == INPUTS


def test_a7_pipeline_outputs_pinned(a7_run):
    assert _digests(a7_run / "out", PIPELINE_FILES) == A7_PIPELINE


def test_small_corpus_pipeline_outputs_pinned(small_run):
    root, result = small_run
    counts = result.manifest["counts"]
    # the corpus exercises what it claims to: rejections, the SF filter and
    # sub-second timestamps all reach the outputs
    assert counts["rejected"] == len(_SMALL_BAD_ROWS)
    assert counts["after_sf_filter"] < counts["after_dedup"]
    assert ".25" in (root / "out" / "cleaned.csv").read_text()
    assert _digests(root / "out", PIPELINE_FILES) == SMALL_PIPELINE


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_a7_fitted_params_pinned(a7_run, variant):
    report = fit(ingest(a7_run / "out" / "train.csv").records, variant)
    assert report.params.tolist() == pytest.approx(A7_PARAMS[variant], rel=0, abs=1e-12)


def test_a7_cli_outputs_pinned(a7_run, capsys):
    out = a7_run / "out"
    cli = a7_run / "cli"
    cli.mkdir(exist_ok=True)
    for variant in ("mw", "mw-ep"):
        model = str(cli / f"{variant}.model.json")
        commands = (
            ["fit", "--variant", variant, "--input", str(out / "train.csv"),
             "--out", model, "--report", str(cli / f"{variant}.fit.json")],
            ["evaluate", "--model", model, "--input", str(out / "test.csv"),
             "--report", str(cli / f"{variant}.eval.json")],
            ["cross-validate", "--variant", variant, "--input", str(out / "train.csv"),
             "--folds", "5", "--seed", "42", "--report", str(cli / f"{variant}.cv.json")],
        )
        for argv in commands:
            assert main(argv) == 0
    assert _digests(cli, A7_CLI) == A7_CLI


#: Every subcommand, run in order from one working directory with relative
#: paths; later runs read what earlier ones wrote.  Each run pins its stdout,
#: its ``manifest:`` log line (``None`` when it wrote a manifest file) and the
#: files it wrote.
CLI_RUNS = (
    (["airtime", "--sf", "9", "--bw", "125000", "--payload", "18"], ()),
    (["duty-cycle", "--schedule", "schedule.jsonl", "--limit", "0.02"], ()),
    (["link-budget", "--rssi", "-73", "--snr", "5.5", "--sf", "7"], ()),
    (["link-budget", "--rssi", "-90", "--snr", "-2", "--params", "params.json"], ()),
    (["adr-sim", "--trace", "trace.txt", "--sf", "10"], ()),
    (["simulate", "--seed", "3", "--max-distance", "40", "--points", "12"], ()),
    (["simulate", "--seed", "4", "--max-distance", "60", "--points", "9", "--out", "sim.csv"],
     ("sim.csv", "sim.manifest.json")),
    (["pipeline", "run", "--input", "raw.csv", "--out-dir", "out", "--seed", "7"],
     ("out/cleaned.csv", "out/train.csv", "out/test.csv", "out/manifest.json")),
    (["fit", "--variant", "mw", "--input", "out/train.csv", "--out", "mw.json"],
     ("mw.json", "mw.manifest.json")),
    (["fit", "--variant", "mw-ep", "--input", "out/train.csv", "--config", "fit.json",
      "--out", "ep.json", "--report", "ep.fit.json"],
     ("ep.json", "ep.fit.json", "ep.manifest.json")),
    (["predict", "--model", "mw.json", "--distance", "12.5", "--brick", "1", "--wood", "2"], ()),
    (["predict", "--model", "ep.json", "--distance", "12.5", "--brick", "1", "--freq", "868.3",
      "--snr", "4", "--env-json", '{"temperature": 21, "humidity": 40, "pressure": 323, '
      '"pm25": 2, "co2": 550}'], ()),
    (["evaluate", "--model", "mw.json", "--input", "out/test.csv"], ()),
    (["evaluate", "--model", "ep.json", "--input", "out/test.csv", "--report", "ep.eval.json"],
     ("ep.eval.json", "ep.eval.manifest.json")),
    (["cross-validate", "--variant", "mw", "--input", "out/train.csv", "--folds", "3",
      "--seed", "5"], ()),
    (["cross-validate", "--variant", "mw-ep", "--input", "out/train.csv", "--folds", "3",
      "--seed", "5", "--config", "fit.json", "--report", "ep.cv.json"],
     ("ep.cv.json", "ep.cv.manifest.json")),
)

_CLI_INPUTS = {
    "schedule.jsonl": '{"sf": 7, "bw_hz": 125000, "payload_bytes": 18, "count": 40}\n'
                      '{"sf": 10, "bw_hz": 125000, "payload_bytes": 30, "count": 6}\n',
    "params.json": '{"tx_power_dbm": 14, "tx_cable_loss_db": 0.5, "tx_antenna_gain_dbi": 2,'
                   ' "rx_antenna_gain_dbi": 3, "rx_cable_loss_db": 1,'
                   ' "tx_antenna_height_m": 1.5, "rx_antenna_height_m": 2}\n',
    "trace.txt": "10\n8.5\n-3\n12\n15\n2\n",
    "fit.json": '{"max_iterations": 50, "damping_initial": 0.01}\n',
}


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


CLI_PINS = {
    "00 airtime": {
        "stdout": "55139637d1c005349cd1d2bf89bf4d74a05d64d8b7998605a41da5c4dddefaf2",
        "manifest_log": "1cc55383434f991f40ed19a74989f24559f4d59b61347ef41ab00bf526f8ae71",
    },
    "01 duty-cycle": {
        "stdout": "42acb3b2df8eb39375d6b965c123698f3d0318bc0159d2fe0da7cb03c2c62ade",
        "manifest_log": "6952d2c224ca106b4d71b28517d1140d78361987f0170974f11420580c25e439",
    },
    "02 link-budget": {
        "stdout": "b568ae8d4006954c8cc6dcaa2ea0c6f8ed0fbf8d5d18d439d653cad8bd0a630d",
        "manifest_log": "f761f5f11450c846657e10afdde86761d6eb3f1dfde712f458944f28602a6023",
    },
    "03 link-budget": {
        "stdout": "c462382e7a27e8acad63a9b0c04d912c70f19f5bbc4d337224872e558bb6b0a4",
        "manifest_log": "22962fad23c7c3f9f73346985c9b5fa9b49189839cfb30a50d3beea8a3b5d339",
    },
    "04 adr-sim": {
        "stdout": "039041611db740db0e5791d475f6888e176cb8f69dc89c3361889318bf81acad",
        "manifest_log": "6395f3bb6aa5a3373a24a8c62fcab2d3d125fc060123279585c0e0eff486e3ca",
    },
    "05 simulate": {
        "stdout": "0c2f59f2789ef7f613b3a5068046556f375ab51d87d3a5f6ba8451cad835a250",
        "manifest_log": "f111dd4f626e6a5e445c1fc7176836f64d021511c5b1943c2e108fd184859429",
    },
    "06 simulate": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest_log": None,
        "sim.csv": "7eb7b6b30feea589a27e8021cef82ab783b5bf26338e3ce4f7cc5ba9ab034371",
        "sim.manifest.json": "d795687648958c4fec2eb13aecefeb8d7932f4f7e7c67f3370e52649b2d1cce1",
    },
    "07 pipeline": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest_log": None,
        "out/cleaned.csv": "a94957d89c8a5fac34f1c9d80fab2f4ffa0c76041198099aaffa19a486ec4d0a",
        "out/train.csv": "371ab783ab80ed4983516dc8e794724e704189c3e1ea83d0025d7864cc11b21f",
        "out/test.csv": "3bdadf789c2b59786a00c819e92df9f6ef54d84cecc1172b7fa0a0ef12ffa258",
        "out/manifest.json": "68713ad1862997b3e8f1564a7559df3e37a386a23a1d494308056026963c993a",
    },
    "08 fit": {
        "stdout": "8b304a7e0783f1201a513f10147ab135e391358109c8e9afe2608d3e97e7fdc8",
        "manifest_log": None,
        "mw.json": "1a98c11230ea1d55363f5a81f70cd204d33dd53be4a8c949b4c66ea95a5a5336",
        "mw.manifest.json": "c51e8eaabecb54a04c41f15b8b5cc604f635c1a7122dd701780447b07d2f5c20",
    },
    "09 fit": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest_log": None,
        "ep.json": "df82f3070c142d53b0caddc91ef7eee5c1783377e549bddb3ec5c3be38885dbf",
        "ep.fit.json": "85f017d9f62ce9532023e85670393c2750b517480de0415a93934dcd2ae0ac89",
        "ep.manifest.json": "ad38bf336ac616d015901c7b64b7129e6ab3fe5cf49cebe3b3f6ab6ab669c32b",
    },
    "10 predict": {
        "stdout": "7b462858aee7f0f052e2864ba160112c4bef231242d4f936e062ae5b05452320",
        "manifest_log": "6d72f64d6c2e58ca8f20751e9658302d7fa982db418dd11b28eb0830cce45c74",
    },
    "11 predict": {
        "stdout": "8bc9c9095a649e0ed945f3026f8434402b56059c53fd438e6058e92ff9e7a6ce",
        "manifest_log": "6005dab6a5937a09ea5562eb58470f1b089a5cc0bfe410020a663f4bc01d05e4",
    },
    "12 evaluate": {
        "stdout": "6cd39c815369ca4577b6b08bbc5c125eb5128f634b3d128dd5951ed9bc38d3fa",
        "manifest_log": "5859cfaaa8297f4e00ab2767b665c1fca4bdfb0416ee0f9a389db4b74acb44d4",
    },
    "13 evaluate": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest_log": None,
        "ep.eval.json": "00e49349019b704e84d0010aae5efb5950ced35793fdfeb9e2f7e96cfb1536a3",
        "ep.eval.manifest.json": "655e923502e443264163925546c66529e5f73b0f533c5f998b2873efffb73f1f",
    },
    "14 cross-validate": {
        "stdout": "8a0379c924dd76e7a60c61ff663fc492eea39eb9428fb21b90052e4370d068e5",
        "manifest_log": "e77941f90cef459bf0214e14ff55b43e9b75027960235da3e6260edeb7193cf7",
    },
    "15 cross-validate": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest_log": None,
        "ep.cv.json": "b9cd7bc50651a0e54819e565fa55cb7996378aa7ad4ad31fe6d364e3fc9b83ad",
        "ep.cv.manifest.json": "9337266e6f2bdb45768dfd8631b1ecf99b35affd1f7a76ef7f19c742aca6f2cb",
    },
}


def test_every_cli_command_pinned(tmp_path, capsys, caplog):
    caplog.set_level("INFO", logger="loraprop")
    raw = synth_dataset(rows_per_device=100, seed=3, duplicates_per_device=2,
                        sf_cycle=(7, 8, 9, 10, 11, 12)).records
    write_records_csv(csv_lines(raw), tmp_path / "raw.csv")
    for name, text in _CLI_INPUTS.items():
        (tmp_path / name).write_text(text)
    pins = {}
    with _cwd(tmp_path):
        for argv, written in CLI_RUNS:
            caplog.clear()
            assert main(argv) == 0, argv
            logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("manifest: ")]
            assert len(logged) == (0 if written else 1), argv
            pins[f"{len(pins):02d} {argv[0]}"] = {
                "stdout": _sha(capsys.readouterr().out),
                "manifest_log": _sha(logged[0]) if logged else None,
            } | {path: _sha(Path(path).read_bytes()) for path in written}
    assert pins == CLI_PINS
