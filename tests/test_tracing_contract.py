"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps loraprop
functions at the module attributes listed in ``perfbench/tracing.py``.

Moving or renaming one of them, or renaming the argument a span extractor
reads, would crash that run.  These tests read the tracing table as it is and
check it still resolves against the package.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

#: Argument each span extractor reads from the traced call, as
#: (position, name); ``None`` for extractors that read only the result.
EXTRACTOR_ARGS = {
    "_removed": (0, "records"),
    "_bytes": (1, "path"),
    "_rows": (0, "observations"),
    "_iterations": None,
}


@pytest.mark.parametrize(
    "module_name, attribute",
    [entry[:2] for entry in tracing.SPANS] + [entry[:2] for entry in tracing.PER_ROW],
)
def test_traced_attribute_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute} is gone"


@pytest.mark.parametrize(
    "module_name, attribute, extractor",
    [(m, a, x) for m, a, _, x in tracing.SPANS if x is not None],
)
def test_extractor_argument_exists(module_name, attribute, extractor):
    assert extractor.__name__ in EXTRACTOR_ARGS, f"unknown extractor {extractor.__name__}"
    expected = EXTRACTOR_ARGS[extractor.__name__]
    source = inspect.getsource(extractor)
    if expected is None:
        assert "_arg(" not in source
        return
    position, name = expected
    assert f'_arg(args, kwargs, {position}, "{name}")' in source
    fn = getattr(importlib.import_module(module_name), attribute)
    parameters = list(inspect.signature(fn).parameters)
    assert parameters[position : position + 1] == [name], (
        f"{module_name}.{attribute}{inspect.signature(fn)} has no argument "
        f"{name!r} at position {position}"
    )


def test_benchmark_library_calls_run(tmp_path):
    """What ``perfbench/checks.py`` and ``perfbench/worker.py`` call outside
    the CLI: ``ingest(path).records`` with a length, and the mw-ep fit and
    its standard errors on that table."""
    from loraprop.fitting import fit, standard_errors
    from loraprop.pipeline import csv_lines, ingest, write_records_csv
    from loraprop.propagation import ModelVariant

    from helpers import synth_dataset

    path = tmp_path / "tiny.csv"
    write_records_csv(csv_lines(synth_dataset(rows_per_device=6, seed=3, duplicates_per_device=0).clean), path)
    records = ingest(path).records
    assert len(records) == 30
    report = fit(records, ModelVariant.MW_EP)
    errors = standard_errors(report, records)
    assert errors.shape == report.params.shape
    assert np.all(np.isfinite(errors))


def test_isolation_forest_builds_through_the_module_attribute(monkeypatch):
    """``isolation_forest`` must look ``fit_isolation_forest`` up at call time,
    so the traced run can time the forest build apart from the scoring
    (``pipeline.fit_isolation_forest.s`` vs ``pipeline.isolation_forest.self_s``)."""
    from loraprop import pipeline

    calls = []
    build = pipeline.fit_isolation_forest

    def wrapper(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_isolation_forest", wrapper)
    matrix = np.random.default_rng(0).normal(size=(50, 3))
    flags = pipeline.isolation_forest(matrix, pipeline.IsolationForestConfig(n_trees=5))
    assert len(calls) == 1
    assert flags.shape == (50,) and flags.dtype == bool


def test_cross_validate_builds_the_design_once_through_the_module_attributes(monkeypatch):
    """``fitting.design_matrix.rows_per_input_row`` counts design rows built
    under ``cross_validate`` per row it was given: X and the fixed term are
    built once, for the whole table, through the ``loraprop.fitting``
    attributes, so the traced ratio is 1.0."""
    from loraprop import fitting
    from loraprop.evaluation import cross_validate
    from loraprop.propagation import ModelVariant

    from helpers import synth_dataset

    rows = {"design_matrix": [], "fixed_offsets": []}
    for name in rows:
        def wrapper(observations, *args, _build=getattr(fitting, name), _rows=rows[name], **kwargs):
            _rows.append(len(observations))
            return _build(observations, *args, **kwargs)

        monkeypatch.setattr(fitting, name, wrapper)
    table = synth_dataset(rows_per_device=20, seed=5, duplicates_per_device=0).clean
    result = cross_validate(table, ModelVariant.MW_EP, folds=5, seed=1)
    assert len(result.folds) == 5
    assert rows == {"design_matrix": [len(table)], "fixed_offsets": [len(table)]}


def test_run_pipeline_formats_the_clean_table_once_and_writes_train_and_test_from_its_lines(
    monkeypatch, small_synth_csv, tmp_path
):
    """``run_pipeline`` turns the clean table into lines with one
    ``csv_lines`` call, and ``train.csv`` and ``test.csv`` are the
    ``cleaned.csv`` lines of their rows, so each cleaned row is formatted once."""
    from loraprop import pipeline

    calls = []
    csv_lines = pipeline.csv_lines

    def wrapper(records):
        calls.append(len(records))
        return csv_lines(records)

    monkeypatch.setattr(pipeline, "csv_lines", wrapper)
    result = pipeline.run_pipeline(small_synth_csv, tmp_path, contamination=0.05)
    assert calls == [result.manifest["counts"]["clean"]]
    header, *cleaned = (tmp_path / "cleaned.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    for name, index in (("train", result.train_index), ("test", result.test_index)):
        lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines == [header, *(cleaned[i] for i in index.tolist())]
