from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import pytest

from loraprop.pipeline import csv_lines, write_records_csv

from helpers import synth_dataset


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "dataset: needs the published measurement dataset (set LORAPROP_DATASET)"
    )


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test leaves no child process behind.  ``active_children`` also
    reaps the children that have ended."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def small_synth():
    """400-row synthetic dataset (fast) with 2 duplicates per device."""
    return synth_dataset(rows_per_device=100, seed=3, duplicates_per_device=2, sf_cycle=(7, 8, 9, 10, 11, 12))


@pytest.fixture(scope="session")
def small_synth_csv(small_synth, tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "synth.csv"
    write_records_csv(csv_lines(small_synth.records), path)
    return path


@pytest.fixture(scope="session")
def a7_corpus(tmp_path_factory):
    """The A7 corpus (10k rows from five devices, 25 injected duplicates,
    SF 7-10) and its CSV, built once for every test that reads it."""
    data = synth_dataset(rows_per_device=2000, seed=7, duplicates_per_device=5, sf_cycle=(7, 8, 9, 10))
    path = tmp_path_factory.mktemp("a7") / "a7.csv"
    write_records_csv(csv_lines(data.records), path)
    return data, path


def dataset_path() -> Path | None:
    """Location of the published measurement CSV, if the user provided one."""
    candidate = os.environ.get("LORAPROP_DATASET")
    if candidate and Path(candidate).is_file():
        return Path(candidate)
    return None
