"""``csv_lines`` against the row-by-row writer it replaced.

The reference, ``helpers.write_reference_csv``, formats each row with the
per-column ``format_row`` (``isoformat(sep=" ")``, ``repr``, ``str``) and
writes it through a ``csv.writer``.  ``csv_lines`` formats a block of rows
at a time, each distinct value once, and checks the first line of each block
against ``format_row``.  On any table both must write the same bytes,
whatever the locale: non-ASCII ids are written as UTF-8.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loraprop import pipeline
from loraprop.pipeline import csv_lines, write_records_csv
from loraprop.records import _INT_COLUMNS, CSV_COLUMNS, MAX_DEVICE_ID_CHARS, ObservationTable

from helpers import DEFAULT_ROW, write_reference_csv

_FLOAT_COLUMNS = [name for name in CSV_COLUMNS[2:] if name not in _INT_COLUMNS]
_ODD_IDS = ("", ",", '"', "\r", "\n", " lead", "nöde", "測定", 'a,"b"\rc ', "dev0")
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e16, 1e-7, 0.1)
_EDGE_INTS = (0, -1, 2**63 - 1, -(2**63 - 1), -(2**63))

_times = (
    st.datetimes()
    | st.datetimes().map(lambda t: t.replace(microsecond=0))
    | st.datetimes(max_value=datetime(999, 12, 31, 23, 59, 59, 999_999))
)
_ids = st.sampled_from(_ODD_IDS) | st.text(max_size=MAX_DEVICE_ID_CHARS)
_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_ints = st.sampled_from(_EDGE_INTS) | st.integers(-(2**63), 2**63 - 1)
_pools = st.fixed_dictionaries(
    {"time": st.lists(_times, min_size=1, max_size=6), "device_id": st.lists(_ids, min_size=1, max_size=6)}
    | {name: st.lists(_ints if name in _INT_COLUMNS else _floats, min_size=1, max_size=6) for name in CSV_COLUMNS[2:]}
)
_BLOCK = pipeline._LINE_BLOCK


def _table(pools: dict, rows: int, seed: int, spread: bool):
    """``rows`` rows whose cells are drawn from each column's pool; with
    ``spread``, the float cells are scaled row by row, so most are distinct."""
    rng = np.random.default_rng(seed)
    columns = {name: np.asarray(pool, dtype=object)[rng.integers(len(pool), size=rows)].tolist()
               for name, pool in pools.items()}
    if spread:
        for name in _FLOAT_COLUMNS:
            columns[name] = (np.asarray(columns[name], dtype=np.float64) * rng.uniform(0.5, 1.0, rows)).tolist()
    return ObservationTable(columns)


@settings(max_examples=60, deadline=None)
@given(
    pools=_pools,
    rows=st.sampled_from([0, 1, 2, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.booleans(),
)
@example(pools={name: [DEFAULT_ROW[name]] for name in CSV_COLUMNS}, rows=1, seed=0, spread=False)
@example(
    pools={"time": [datetime(1, 1, 1), datetime(999, 12, 31, 23, 59, 59, 1)], "device_id": list(_ODD_IDS)}
    | {name: list(_EDGE_INTS if name in _INT_COLUMNS else _EDGE_FLOATS) for name in CSV_COLUMNS[2:]},
    rows=_BLOCK + 1, seed=1, spread=False,
)
def test_lines_equal_the_row_by_row_writer(tmp_path_factory, pools, rows, seed, spread):
    table = _table(pools, rows, seed, spread)
    directory = tmp_path_factory.mktemp("writer")
    write_records_csv(csv_lines(table), directory / "lines.csv")
    write_reference_csv(table, directory / "reference.csv")
    assert (directory / "lines.csv").read_bytes() == (directory / "reference.csv").read_bytes()


def test_first_line_of_each_block_is_checked_against_format_row(monkeypatch):
    """``csv_lines`` formats one row per block with ``pipeline.format_row``
    and refuses a block whose first line differs from it."""
    table = _table({name: [DEFAULT_ROW[name]] for name in CSV_COLUMNS}, 2 * _BLOCK + 1, seed=0, spread=False)
    checked = []
    format_row = pipeline.format_row
    monkeypatch.setattr(pipeline, "format_row", lambda values: checked.append(values) or format_row(values))
    csv_lines(table)
    assert len(checked) == 3

    time_cells = pipeline._time_cells
    monkeypatch.setattr(pipeline, "_time_cells", lambda times: [t + "Z" for t in time_cells(times)])
    with pytest.raises(RuntimeError, match="row 0"):
        csv_lines(table)
