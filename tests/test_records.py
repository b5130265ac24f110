import math
import re
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from loraprop.errors import InvalidDataError
from loraprop.records import (
    _INT_COLUMNS,
    COLUMN_RANGES,
    CSV_COLUMNS,
    MAX_DEVICE_ID_CHARS,
    ObservationTable,
    check_range,
    format_row,
    parse_row,
)

from helpers import DEFAULT_ROW, make_table, reference_format_row, rows_of, table_rows

GOOD_CELLS = [
    "2024-01-01 00:00:00", "dev0", "550.0", "38.0", "2.0", "323.0", "21.0", "-75.0", "8.0",
    "7", "868.1", "0", "0", "0.046336", "10.0", "0", "0", "92.26", "-83.6389", "-75.6389",
]


def with_cell(column, text):
    cells = list(GOOD_CELLS)
    cells[CSV_COLUMNS.index(column)] = text
    return cells


class TestObservationTable:
    def test_constructor_coerces_column_dtypes(self):
        table = make_table(SF=[7.0, 8.0], time=["2024-01-01 00:00:00.5", DEFAULT_ROW["time"]])
        assert table["SF"].dtype == np.int64
        assert table["time"].dtype == np.dtype("datetime64[us]")
        assert table["device_id"].dtype.kind == "U"
        assert table["rssi"].dtype == np.float64
        assert len(table) == 2

    def test_rows_are_python_values_in_csv_order(self):
        (row,) = rows_of(make_table())
        assert row == tuple(DEFAULT_ROW[name] for name in CSV_COLUMNS)
        assert [type(v) for v in row[:3]] == [datetime, str, float]
        assert type(row[CSV_COLUMNS.index("SF")]) is int

    def test_rows_cross_block_boundaries(self):
        table = make_table(f_count=range(10_000))
        assert [r[CSV_COLUMNS.index("f_count")] for r in table_rows(table)] == list(range(10_000))

    def test_take_by_index_and_mask(self):
        table = make_table(f_count=range(5))
        assert table.take([4, 0])["f_count"].tolist() == [4, 0]
        assert table.take(table["f_count"] % 2 == 0)["f_count"].tolist() == [0, 2, 4]

    def test_missing_column_rejected(self):
        columns = {name: make_table()[name] for name in CSV_COLUMNS if name != "esp"}
        with pytest.raises(InvalidDataError, match="table columns"):
            ObservationTable(columns)

    def test_unequal_lengths_rejected(self):
        columns = {name: make_table()[name] for name in CSV_COLUMNS}
        columns["rssi"] = [-70.0, -71.0]
        with pytest.raises(InvalidDataError, match="equal length"):
            ObservationTable(columns)


class TestParseRow:
    def test_typed_values_round_trip_through_format_row(self):
        values = parse_row(GOOD_CELLS)
        assert values == tuple(DEFAULT_ROW[name] for name in CSV_COLUMNS)
        assert parse_row(format_row(values)) == values

    @pytest.mark.parametrize(
        "cells, reason",
        [
            (GOOD_CELLS[:-1], "wrong-field-count"),
            (with_cell("co2", ""), "missing-value"),
            (with_cell("rssi", "oops"), "bad-rssi"),
            (with_cell("rssi", "nan"), "non-finite"),
            (with_cell("f_count", "1.5"), "bad-f_count"),
            (with_cell("SF", "13"), "bad-SF"),
            (with_cell("distance", "-3"), "bad-distance"),
            (with_cell("w_walls", "-1"), "bad-w_walls"),
            (with_cell("frequency", "0"), "bad-frequency"),
            (with_cell("frequency", "-868.1"), "bad-frequency"),
            (with_cell("time", "2024-13-01 00:00:00"), "bad-time"),
            (with_cell("time", "2024-01-01 00:00:00+02:00"), "bad-time"),
            (with_cell("time", "2024-01-01T00:00:00Z"), "bad-time"),
            # fromisoformat reads any character between date and time
            (with_cell("time", "2024-01-01Q12:00:00"), "bad-time"),
            (with_cell("time", "2024-01-01t12:00:00"), "bad-time"),
            (with_cell("time", "2024-01-01512:00:00"), "bad-time"),
            (with_cell("time", "20240101Q120000"), "bad-time"),
            (with_cell("time", "2024-1-1\t0:00:00"), "bad-time"),
            (with_cell("f_count", "1e19"), "bad-f_count"),
            (with_cell("device_id", "d" * (MAX_DEVICE_ID_CHARS + 1)), "bad-device_id"),
            (with_cell("device_id", "dev\0"), "bad-device_id"),
            (with_cell("device_id", "d\0ev"), "bad-device_id"),
            # csv_lines would write either across two lines
            (with_cell("device_id", "a\rb"), "bad-device_id"),
            (with_cell("device_id", "a\nb"), "bad-device_id"),
            (with_cell("device_id", "a\r\nb"), "bad-device_id"),
            (with_cell("c_walls", "-1"), "bad-c_walls"),
            # each of these was ingested before the range table
            (with_cell("humidity", "120"), "bad-humidity"),
            (with_cell("co2", "1e160"), "bad-co2"),
            (with_cell("co2", "-5"), "bad-co2"),
            (with_cell("pm25", "-0.5"), "bad-pm25"),
            (with_cell("rssi", "31"), "bad-rssi"),
            (with_cell("snr", "92.26"), "bad-snr"),
            (with_cell("frequency", "1e-3"), "bad-frequency"),
            (with_cell("frequency", "2400"), "bad-frequency"),
        ],
    )
    def test_data_faults_raise_invalid_data_error(self, cells, reason):
        with pytest.raises(InvalidDataError) as caught:
            parse_row(cells)
        assert str(caught.value).split(":", 1)[0] == reason

    @pytest.mark.parametrize(
        "cells",
        [
            with_cell("device_id", "d\udcffv"),
            with_cell("device_id", "n\u00f6de\udcff"),
            with_cell("rssi", "-7\udcff5"),
            # fromisoformat takes any character between date and time
            with_cell("time", "2024-01-01\udcff00:00:00"),
            with_cell("SF", "13\udcff"),
            GOOD_CELLS[:-1] + ["\udcff"],
            GOOD_CELLS[:-2] + ["\udcff"],
        ],
    )
    def test_a_lone_surrogate_anywhere_is_bad_encoding(self, cells):
        with pytest.raises(InvalidDataError, match="^bad-encoding: "):
            parse_row(cells)

    def test_device_id_of_the_longest_accepted_length(self):
        longest = "d" * MAX_DEVICE_ID_CHARS
        assert parse_row(with_cell("device_id", longest))[1] == longest

    def test_range_checks_follow_the_cell_checks(self):
        # a row with several faults reports the first cell fault, then the
        # range checks in their fixed order
        cells = with_cell("SF", "13")
        cells[CSV_COLUMNS.index("frequency")] = "0"
        with pytest.raises(InvalidDataError, match="^bad-SF: 13 outside"):
            parse_row(cells)
        cells[CSV_COLUMNS.index("rssi")] = "oops"
        with pytest.raises(InvalidDataError, match="^bad-rssi"):
            parse_row(cells)

    def test_iso_and_declared_time_formats_agree(self):
        for text in ("2024-01-01 00:00:00", "2024-01-01T00:00:00", "2024-1-1 0:00:00",
                     "20240101T000000", "2024-01-01"):
            assert parse_row(with_cell("time", text))[0] == datetime(2024, 1, 1)
        assert parse_row(with_cell("time", "2024-01-01 00:00:00.25"))[0].microsecond == 250000


class TestColumnRanges:
    def test_readme_table_equals_column_ranges(self):
        # the README's table of column ranges, row for row and in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        bound = {"max": sys.float_info.max, "-max": -sys.float_info.max}
        rows = re.findall(r"^\| `(\w+)` \| (\S+) \| (\S+) \|", readme, re.MULTILINE)
        assert [(name, bound.get(low) or float(low), bound.get(high) or float(high))
                for name, low, high in rows] == [(name, *interval) for name, interval in COLUMN_RANGES.items()]

    def test_checks_start_in_the_order_of_the_old_range_checks(self):
        # a row refused before the table existed keeps its tag
        assert list(COLUMN_RANGES)[:5] == ["SF", "distance", "c_walls", "w_walls", "frequency"]
        assert set(COLUMN_RANGES) <= set(CSV_COLUMNS)

    @pytest.mark.parametrize("column", list(COLUMN_RANGES))
    def test_each_end_is_inside_and_its_neighbour_outside(self, column):
        low, high = COLUMN_RANGES[column]
        check_range(column, low)
        check_range(column, high)
        for value in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf), math.nan):
            with pytest.raises(InvalidDataError, match=f"^{re.escape(f'bad-{column}: {value} outside [{low}, {high}]')}$"):
                check_range(column, value)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-7, 1.7976931348623157e308, 0.1)
EDGE_INTS = (0, -1, 2**63 - 1, -(2**63 - 1), -(2**63))


def typed_cell(column):
    if column == "time":
        return st.datetimes() | st.datetimes().map(lambda t: t.replace(microsecond=0))
    if column == "device_id":
        return st.text(min_size=1, max_size=MAX_DEVICE_ID_CHARS)
    if column in _INT_COLUMNS:
        return st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1)
    return st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


class TestFormatRow:
    @given(st.tuples(*map(typed_cell, CSV_COLUMNS)))
    @example(tuple(DEFAULT_ROW[name] for name in CSV_COLUMNS))
    @example((datetime(2024, 1, 1, 0, 0, 0, 5), "dev0", -0.0, 5e-324, 1e16, 1e-7,
              *(2**63 - 1 if name in _INT_COLUMNS else -(2**-1074) for name in CSV_COLUMNS[6:])))
    def test_cells_equal_the_per_column_reference(self, values):
        assert format_row(values) == reference_format_row(values)

