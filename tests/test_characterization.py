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
    "mw-ep.cv.json": "fe9619e93abfc713d1856e0363289612e516d0e0f51eb10c4e3d4e90d0c2d564",
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
