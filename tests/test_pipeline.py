import gc
import json
import logging
import math
import multiprocessing
import os
import signal
import tracemalloc
import warnings
from collections import Counter, namedtuple
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loraprop import pipeline
from loraprop.errors import InvalidDataError, LorapropError
from loraprop.jsonio import write_json
from loraprop.link_budget import DEFAULT_LINK_BUDGET, esp, noise_power
from loraprop.pipeline import (
    IsolationForestConfig,
    SplitSpec,
    audit_derived_columns,
    average_path_length,
    csv_lines,
    daily_distribution,
    dedup_retransmissions,
    filter_sf,
    fit_isolation_forest,
    flag_anomalies,
    ingest,
    isolation_forest,
    kfold,
    run_pipeline,
    split,
    standardize,
    write_records_csv,
)
from loraprop.records import CSV_COLUMNS, FEATURE_FIELDS, MAX_DEVICE_ID_CHARS

from helpers import (
    concat,
    make_table,
    record_keys,
    replace_columns,
    rows_of,
    synth_dataset,
    table_rows,
    use_cpus,
    write_reference_csv,
)

HEADER = ",".join(CSV_COLUMNS)
GOOD_ROW = (
    "2024-01-01 00:00:00,dev0,550.0,38.0,2.0,323.0,21.0,-75.0,8.0,7,868.1,"
    "0,0,0.046336,10.0,0,0,92.26,-83.6389,-75.6389"
)


@pytest.fixture
def csv_source(tmp_path):
    """Writes the header and the given lines to a file, encoded as ingest
    decodes it, and gives its path."""
    def write(*rows):
        path = tmp_path / "input.csv"
        path.write_bytes(("\n".join([HEADER, *rows]) + "\n").encode("utf-8", "surrogateescape"))
        return path

    return write


class TestIngest:
    def test_well_formed_row_accepted_verbatim(self, csv_source):
        result = ingest(csv_source(GOOD_ROW))
        assert result.rows_read == 1
        assert not result.rejections
        table = result.records
        assert len(table) == 1
        assert table["device_id"][0] == "dev0"
        assert table["time"][0] == np.datetime64(datetime(2024, 1, 1, 0, 0, 0))
        assert table["co2"][0] == 550.0
        assert table["SF"][0] == 7
        assert table["exp_pl"][0] == 92.26

    def test_missing_value_rejected(self, csv_source):
        row = GOOD_ROW.replace("550.0", "")
        result = ingest(csv_source(row))
        assert len(result.records) == 0
        assert result.rejections[0].reason == "missing-value"
        assert result.rejections[0].line == 1

    def test_non_finite_rejected(self, csv_source):
        for token in ("nan", "inf", "-inf", "NaN"):
            result = ingest(csv_source(GOOD_ROW.replace("550.0", token)))
            assert len(result.records) == 0
            assert result.rejections[0].reason == "non-finite"

    def test_unparseable_token_rejected(self, csv_source):
        result = ingest(csv_source(GOOD_ROW.replace("-75.0,8.0", "oops,8.0")))
        assert result.rejections[0].reason == "bad-rssi"

    def test_bad_timestamp_rejected(self, csv_source):
        result = ingest(csv_source(GOOD_ROW.replace("2024-01-01 00:00:00", "yesterday")))
        assert result.rejections[0].reason == "bad-time"

    def test_out_of_range_sf_rejected(self, csv_source):
        result = ingest(csv_source(GOOD_ROW.replace(",7,868.1", ",6,868.1")))
        assert result.rejections[0].reason == "bad-SF"

    def test_wrong_field_count_rejected(self, csv_source):
        result = ingest(csv_source(GOOD_ROW + ",extra"))
        assert result.rejections[0].reason == "wrong-field-count"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(InvalidDataError, match="malformed header"):
            ingest(path)

    def test_mixed_good_and_bad_rows(self, csv_source):
        bad = GOOD_ROW.replace("38.0", "")
        result = ingest(csv_source(GOOD_ROW, bad, GOOD_ROW))
        assert len(result.records) == 2
        assert len(result.rejections) == 1
        assert result.rejections[0].line == 2
        assert len(result.rejections) / result.rows_read == pytest.approx(1 / 3)

    def test_oversized_device_id_rejected_without_widening_the_column(self, csv_source):
        # near the csv module's default field limit of 131072 characters; kept,
        # it would make every id in the column that wide
        long_id = GOOD_ROW.replace("dev0", "d" * 131_000)
        result = ingest(csv_source(GOOD_ROW, long_id, GOOD_ROW))
        assert [r.reason for r in result.rejections] == ["bad-device_id"]
        assert result.records["device_id"].tolist() == ["dev0", "dev0"]
        assert result.records["device_id"].dtype.itemsize <= 4 * MAX_DEVICE_ID_CHARS

    def test_device_id_with_a_nul_is_not_merged_into_another(self, csv_source):
        result = ingest(csv_source(GOOD_ROW, GOOD_ROW.replace("dev0", "dev0\0")))
        assert [r.reason for r in result.rejections] == ["bad-device_id"]
        assert len(result.records) == 1

    def test_reads_from_path(self, small_synth_csv, small_synth):
        result = ingest(small_synth_csv)
        assert len(result.records) == len(small_synth.records)
        assert not result.rejections

    def test_round_trip_preserves_records(self, tmp_path, small_synth):
        path = tmp_path / "round.csv"
        write_records_csv(csv_lines(small_synth.records), path)
        again = ingest(path).records
        assert rows_of(again) == rows_of(small_synth.records)

    def test_ids_holding_commas_and_quotes_round_trip(self, tmp_path):
        ids = ["a,b", 'q"x', 'a,"b"', "\"", "plain"]
        table = make_table(device_id=ids, f_count=range(len(ids)))
        path = tmp_path / "quoted.csv"
        write_records_csv(csv_lines(table), path)
        assert path.read_text().splitlines()[1].split(",")[1:3] == ['"a', 'b"']
        result = ingest(path)
        assert not result.rejections
        assert rows_of(result.records) == rows_of(table)

    def test_bytes_that_are_not_utf8_reject_their_rows_only(self, tmp_path):
        rows = [
            GOOD_ROW,
            GOOD_ROW.replace("dev0", "d\udcffv"),
            GOOD_ROW.replace("-75.0", "-7\udcff5", 1),
            GOOD_ROW.replace(" ", "\udcff", 1),  # fromisoformat takes any date/time separator
            GOOD_ROW.replace("dev0", "n\u00f6de"),
        ]
        path = tmp_path / "latin1.csv"
        path.write_bytes("\n".join([HEADER, *rows, ""]).encode("utf-8", "surrogateescape"))
        assert b"\xff" in path.read_bytes()
        result = ingest(path)
        assert [(r.line, r.reason) for r in result.rejections] == [(n, "bad-encoding") for n in (2, 3, 4)]
        assert result.records["device_id"].tolist() == ["dev0", "n\u00f6de"]

    def test_field_over_the_csv_limit_is_one_rejection(self, csv_source):
        huge = GOOD_ROW.replace("dev0", "d" * 200_000)
        result = ingest(csv_source(GOOD_ROW, huge, GOOD_ROW.replace("dev0", "dev1")))
        assert [(r.line, r.reason) for r in result.rejections] == [(2, "oversized-field")]
        assert result.rows_read == 3
        assert result.records["device_id"].tolist() == ["dev0", "dev1"]


def scalar_audit(table) -> int:
    """The per-row loop ``audit_derived_columns`` replaced, kept as its reference."""
    offset = DEFAULT_LINK_BUDGET.link_offset_db
    violations = 0
    for rssi, snr, exp_pl_db, esp_dbm, n_power_dbm in table_rows(table, ("rssi", "snr", "exp_pl", "esp", "n_power")):
        for expected, actual in (
            (offset - rssi, exp_pl_db),
            (esp(rssi, snr), esp_dbm),
            (noise_power(rssi, snr), n_power_dbm),
        ):
            if abs(expected - actual) >= 0.01:
                violations += 1
    return violations


def nudged(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def derived_cells(rssi: float, snr: float) -> dict[str, float]:
    """The exact ``exp_pl``, ``esp`` and ``n_power`` of one row."""
    offset = DEFAULT_LINK_BUDGET.link_offset_db
    return {"exp_pl": offset - rssi, "esp": esp(rssi, snr), "n_power": noise_power(rssi, snr)}


#: A derived cell: exact, 0.01 dB off its identity (either way) moved by a few
#: ulps, or any float.
_derived_cell = st.one_of(
    st.just(("exact", 0.0, 0)),
    st.tuples(st.just("edge"), st.sampled_from([-0.01, 0.01]), st.integers(-4, 4)),
    st.tuples(st.just("any"), st.floats(-1e300, 1e300), st.just(0)),
)


class TestDerivedAudit:
    def test_consistent_synthetic_data_passes(self, small_synth):
        assert audit_derived_columns(small_synth.records) == 0

    def test_default_rows_pass_and_each_corrupted_cell_counts_once(self):
        assert audit_derived_columns(make_table(f_count=range(5))) == 0
        assert audit_derived_columns(make_table(esp=[0.0, -75.6389, 0.0, 0.0, -75.6389])) == 3

    @staticmethod
    def edge_table(readings=((-75.0, 8.0), (-120.25, -17.75))):
        """Rows of ``readings`` whose derived cells sit 0.01 dB off their
        identities, moved by -4..4 ulps, and how many of them the per-row loop
        counts."""
        rows = [(rssi, snr, ulps) for rssi, snr in readings for ulps in range(-4, 5)]
        cells = [derived_cells(rssi, snr) for rssi, snr, _ in rows]
        table = make_table(
            rssi=[rssi for rssi, _, _ in rows],
            snr=[snr for _, snr, _ in rows],
            **{name: [nudged(c[name] - 0.01, ulps) for c, (_, _, ulps) in zip(cells, rows)]
               for name in ("exp_pl", "esp", "n_power")},
        )
        count = scalar_audit(table)
        assert 0 < count < 3 * len(rows)  # the planted cells straddle the tolerance
        return table, count

    def test_cells_at_the_tolerance_are_counted_as_the_scalar_identities_count_them(self):
        table, count = self.edge_table()
        assert audit_derived_columns(table) == count

    @pytest.mark.parametrize("error", [1e-13, -1e-13])
    def test_numpy_rounding_apart_from_math_does_not_change_the_count(self, monkeypatch, error):
        table, count = self.edge_table()
        log1p = np.log1p
        monkeypatch.setattr(np, "log1p", lambda x: log1p(x) * (1.0 + error))
        assert audit_derived_columns(table) == count

    @pytest.mark.parametrize("ulps", [1, -1])
    def test_large_readings_an_ulp_apart_from_the_scalar_identity_are_rechecked(self, monkeypatch, ulps):
        # at |rssi|, |snr| ~ 1e8 an ulp of the excess (~1.5e-8 dB) is wider
        # than the absolute part of the recheck band
        table, count = self.edge_table(((-1e8, 1e8), (-1.25e8, 0.75e8)))
        excess = pipeline.excess_over_noise_db_array
        monkeypatch.setattr(
            pipeline, "excess_over_noise_db_array", lambda snr: excess(snr) + ulps * np.spacing(excess(snr))
        )
        assert audit_derived_columns(table) == count

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-200.0, 30.0) | st.floats(-1e300, 1e300) | st.sampled_from([1.7976931348623157e308, -1e308]),
                st.floats(-32.0, 32.0) | st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                _derived_cell, _derived_cell, _derived_cell,
            ),
            min_size=1, max_size=20,
        )
    )
    def test_count_equals_the_scalar_loop(self, rows):
        columns: dict[str, list[float]] = {"rssi": [], "snr": [], "exp_pl": [], "esp": [], "n_power": []}
        for rssi, snr, *plants in rows:
            exact = derived_cells(rssi, snr)
            columns["rssi"].append(rssi)
            columns["snr"].append(snr)
            for name, (kind, off, ulps) in zip(("exp_pl", "esp", "n_power"), plants):
                columns[name].append(off if kind == "any" else nudged(exact[name] + off, ulps))
        table = make_table(**columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert audit_derived_columns(table) == scalar_audit(table)

    def test_corrupted_column_flagged(self, small_synth, caplog):
        records = small_synth.records.take(np.arange(6))
        esp = records["esp"].copy()
        esp[[1, 3, 4]] = 0.0
        assert audit_derived_columns(replace_columns(records, esp=esp)) == 3
        assert "derived-column audit: 3 violations" in caplog.text


class TestDedup:
    @staticmethod
    def frames(seconds, f_count, devices="dev0"):
        """Frames at ``seconds`` after midnight with the given counters."""
        times = [datetime(2024, 1, 1) + timedelta(seconds=s) for s in seconds]
        return make_table(time=times, f_count=f_count, device_id=devices)

    def kept(self, table, *positions):
        return rows_of(table.take(list(positions)))

    def test_repeat_within_window_dropped(self):
        frames = self.frames([0.0, 1.5], [10, 10])
        assert rows_of(dedup_retransmissions(frames)) == self.kept(frames, 0)

    def test_repeat_outside_window_kept(self):
        frames = self.frames([0.0, 3.0], [10, 10])
        assert rows_of(dedup_retransmissions(frames)) == self.kept(frames, 0, 1)

    def test_interleaved_devices_kept(self):
        frames = self.frames([0.0, 0.5, 1.0], [10, 10, 10], ["devA", "devB", "devC"])
        assert rows_of(dedup_retransmissions(frames)) == self.kept(frames, 0, 1, 2)

    def test_keeps_first_of_run(self):
        frames = self.frames([0.0, 1.0, 1.9], [10, 10, 10])
        assert rows_of(dedup_retransmissions(frames)) == self.kept(frames, 0)

    def test_anchor_advances_when_window_expires(self):
        # 2.5 s is outside the window: kept, and becomes the anchor that
        # 3.5 s falls within
        frames = self.frames([0.0, 2.5, 3.5], [10, 10, 10])
        assert rows_of(dedup_retransmissions(frames)) == self.kept(frames, 0, 1)

    def test_counter_change_resets(self):
        frames = self.frames([0.0, 1.0], [10, 11])
        assert rows_of(dedup_retransmissions(frames)) == self.kept(frames, 0, 1)

    def test_input_order_invariance(self, small_synth):
        forward = dedup_retransmissions(small_synth.records)
        reversed_order = np.arange(len(small_synth.records))[::-1]
        backward = dedup_retransmissions(small_synth.records.take(reversed_order))
        assert rows_of(forward) == rows_of(backward)

    def test_idempotent(self, small_synth):
        once = dedup_retransmissions(small_synth.records)
        twice = dedup_retransmissions(once)
        assert rows_of(once) == rows_of(twice)

    def test_drops_exactly_the_constructed_duplicates(self, small_synth):
        kept = dedup_retransmissions(small_synth.records)
        assert record_keys(kept) == record_keys(small_synth.clean)


Frame = namedtuple("Frame", "device_id time f_count p_count")


def reference_dedup(frames, window_s=2.0):
    """The record-list dedup the table version replaced, kept as its oracle."""
    ordered = sorted(frames, key=lambda r: (r.device_id, r.time, r.f_count))
    kept = []
    last_per_device = {}
    for record in ordered:
        anchor = last_per_device.get(record.device_id)
        if (
            anchor is not None
            and record.f_count == anchor.f_count
            and (record.time - anchor.time).total_seconds() <= window_s
        ):
            continue
        kept.append(record)
        last_per_device[record.device_id] = record
    return kept


# frames on a 250 ms grid from a few devices and counters: repeats, chains
# of repeats longer than the window, exact ties and any input order
_frames = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 40), st.integers(0, 2)),
    max_size=60,
)


class TestDedupEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(frames=_frames, window_s=st.sampled_from([0.0, 0.25, 0.6, 1.0, 2.0, 2.5]))
    def test_matches_the_record_list_reference(self, frames, window_s):
        start = datetime(2024, 1, 1)
        rows = [
            Frame(device, start + timedelta(milliseconds=250 * tick), counter, i)
            for i, (device, tick, counter) in enumerate(frames)
        ]
        table = make_table(
            device_id=[r.device_id for r in rows],
            time=[r.time for r in rows],
            f_count=[r.f_count for r in rows],
            p_count=[r.p_count for r in rows],
        )
        kept = dedup_retransmissions(table, window_s=window_s)
        expected = reference_dedup(rows, window_s)
        # p_count numbers the input rows: the same rows, in the same order
        assert kept["p_count"].tolist() == [r.p_count for r in expected]


class TestFilterSf:
    def test_excluded_removed(self):
        kept = filter_sf(make_table(SF=[7, 11, 12]))
        assert kept["SF"].tolist() == [7]

    def test_idempotent(self, small_synth):
        once = filter_sf(small_synth.records)
        assert rows_of(filter_sf(once)) == rows_of(once)


def raw_less_mean_over_spread(records, features, usable):
    """``(raw - mean) / std`` of the ``usable`` columns, each column's mean and
    spread taken over the C-contiguous matrix of every one of ``features``."""
    raw = np.column_stack([records[name] for name in features])
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = raw.mean(axis=0), raw.std(axis=0)
    k = [features.index(name) for name in usable]
    return (raw[:, k] - mean[k]) / std[k]


class TestStandardize:
    def test_zero_mean_unit_spread(self, small_synth):
        scaled, constant, unscalable = standardize(small_synth.clean)
        assert (constant, unscalable) == ([], [])
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        records = make_table(co2=[500.0 + i * 10 for i in range(10)])
        shifted = make_table(co2=[600.0 + i * 10 for i in range(10)])
        a, _, _ = standardize(records, features=("co2",))
        b, _, _ = standardize(shifted, features=("co2",))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_returns_raw_less_mean_over_spread(self, small_synth):
        scaled, _, _ = standardize(small_synth.clean)
        expected = raw_less_mean_over_spread(small_synth.clean, FEATURE_FIELDS, FEATURE_FIELDS)
        np.testing.assert_array_equal(scaled, expected)

    def test_feature_whose_sum_overflows_is_named_unscalable(self):
        records = make_table(co2=[500.0, 510.0, 520.0, 530.0, 540.0], temperature=[1.7e308, 1.7e308, 20.0, 21.0, 22.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled, constant, unscalable = standardize(records, features=("co2", "temperature"))
        assert (constant, unscalable) == ([], ["temperature"])
        expected = raw_less_mean_over_spread(records, ("co2", "temperature"), ("co2",))
        np.testing.assert_array_equal(scaled, expected)

    def test_feature_whose_squares_underflow_is_not_called_constant(self):
        records = make_table(co2=[0.0, 1e-170, 0.0, 1e-170])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled, constant, unscalable = standardize(records, features=("co2",))
        assert (constant, unscalable) == ([], ["co2"])
        assert scaled.shape == (4, 0)

    def test_zero_variance_feature_named_constant(self):
        records = make_table(co2=500.0, temperature=[20.0, 21.0, 23.0, 22.0, 20.5])
        scaled, constant, unscalable = standardize(records, features=("co2", "temperature"))
        assert (constant, unscalable) == (["co2"], [])
        expected = raw_less_mean_over_spread(records, ("co2", "temperature"), ("temperature",))
        np.testing.assert_array_equal(scaled, expected)

    def test_every_feature_constant(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled, constant, unscalable = standardize(make_table(f_count=range(6)))
        assert scaled.shape == (6, 0)
        assert (constant, unscalable) == (list(FEATURE_FIELDS), [])

    def test_too_few_records(self):
        with pytest.raises(InvalidDataError):
            standardize(make_table())


class TestIsolationForest:
    def toy_matrix(self):
        rng = np.random.default_rng(0)
        cluster = rng.normal(0.0, 0.1, size=(40, 2))
        outlier = np.array([[10.0, 10.0]])  # 10 sigma in cluster units, x100
        return np.vstack([cluster, outlier])

    def test_far_point_flagged_with_exact_count(self):
        matrix = self.toy_matrix()
        config = IsolationForestConfig(
            n_trees=2, subsample_size=41, contamination=1 / 41, seed=12
        )
        flags = isolation_forest(matrix, config)
        assert flags.sum() == 1
        assert flags[-1]

    def test_brute_force_path_length_oracle(self):
        """Recompute every score by walking the two trees by hand."""
        matrix = self.toy_matrix()
        config = IsolationForestConfig(
            n_trees=2, subsample_size=41, contamination=1 / 41, seed=12
        )
        model = fit_isolation_forest(matrix, config)

        def c(n):
            # canonical unsuccessful-search depth, written out independently
            if n <= 1:
                return 0.0
            if n == 2:
                return 1.0
            return 2.0 * (math.log(n - 1) + 0.5772156649015329) - 2.0 * (n - 1) / n

        def leaf_of(tree, x):
            """Walk the flat node arrays by hand; returns (leaf, depth)."""
            node, depth = 0, 0
            while tree.left[node] != node:
                node = tree.left[node] if x[tree.feature[node]] < tree.threshold[node] else tree.right[node]
                depth += 1
            return node, depth

        # psi equals the row count, so each tree was grown on every row: a
        # leaf's training size is the number of rows that reach it, counted
        # here rather than read back from the tree
        assert model.subsample_size == len(matrix)
        leaf_sizes = [Counter(leaf_of(tree, x)[0] for x in matrix) for tree in model.trees]

        def walk(tree, sizes, x):
            leaf, depth = leaf_of(tree, x)
            return depth + c(sizes[leaf])

        expected = []
        for x in matrix:
            mean_depth = np.mean([walk(t, s, x) for t, s in zip(model.trees, leaf_sizes)])
            expected.append(2.0 ** (-mean_depth / c(model.subsample_size)))
        np.testing.assert_allclose(model.scores(matrix), expected, atol=1e-12)
        assert int(np.argmax(model.scores(matrix))) == len(matrix) - 1

    def test_exact_quantile_count(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(300, 3))
        flags = isolation_forest(matrix, IsolationForestConfig(contamination=0.01))
        assert flags.sum() == round(0.01 * 300)

    def test_fraction_matches_contamination_within_one_over_n(self):
        rng = np.random.default_rng(6)
        for n in (97, 200, 1001):
            matrix = rng.normal(size=(n, 2))
            flags = isolation_forest(matrix, IsolationForestConfig(contamination=0.05))
            assert abs(flags.sum() / n - 0.05) <= 1.0 / n

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(500, 4))
        config = IsolationForestConfig(seed=42)
        np.testing.assert_array_equal(isolation_forest(matrix, config), isolation_forest(matrix, config))
        np.testing.assert_array_equal(*(fit_isolation_forest(matrix, config).scores(matrix) for _ in range(2)))

    def test_matrix_without_columns_rejected(self):
        with pytest.raises(InvalidDataError, match="non-empty"):
            isolation_forest(np.zeros((5, 0)), IsolationForestConfig())

    def test_matrix_with_one_row_rejected(self):
        # one row gives psi = 1, whose normaliser c(1) = 0 made the score NaN
        for call in (fit_isolation_forest, isolation_forest):
            with pytest.raises(InvalidDataError, match="at least two rows"):
                call(np.zeros((1, 3)), IsolationForestConfig())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "overflowing range"])
    def test_non_finite_matrix_rejected(self, bad):
        matrix = np.random.default_rng(0).normal(size=(20, 3))
        if bad == "overflowing range":
            matrix[:2, 1] = (-1e308, 1e308)
        else:
            matrix[4, 1] = bad
        for call in (fit_isolation_forest, isolation_forest):
            with pytest.raises(InvalidDataError, match="non-finite"):
                call(matrix, IsolationForestConfig(n_trees=3))

    def test_average_path_length_values(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        # c(256) from the standard formula
        expected = 2.0 * (math.log(255) + 0.5772156649015329) - 2.0 * 255 / 256
        assert average_path_length(256) == pytest.approx(expected, rel=1e-12)

    def test_per_device_flag_counts(self, small_synth):
        clean = small_synth.clean
        config = IsolationForestConfig(contamination=0.05, seed=42)
        flags, constant = flag_anomalies(clean, config)
        assert constant == {}
        devices = clean["device_id"]
        for device in set(devices.tolist()):
            n_dev = int(np.sum(devices == device))
            flagged = int(np.sum(flags & (devices == device)))
            assert flagged == round(0.05 * n_dev)


    def test_constant_feature_screened_on_the_others(self, small_synth, caplog):
        clean = small_synth.clean
        config = IsolationForestConfig(contamination=0.05, seed=42)
        devices = clean["device_id"]
        mine = devices == "dev1"
        flat = replace_columns(clean, pm25=np.where(mine, 5.0, clean["pm25"]))
        flags, constant = flag_anomalies(flat, config)
        assert constant == {"dev1": ["pm25"]}
        assert "device dev1 has constant feature(s) ['pm25']" in caplog.text
        assert int(flags[mine].sum()) == round(0.05 * int(mine.sum()))
        # the device is screened as if pm25 were not among its features
        varying = tuple(name for name in FEATURE_FIELDS if name != "pm25")
        scaled, _, _ = standardize(flat.take(mine), varying)
        np.testing.assert_array_equal(flags[mine], isolation_forest(scaled, config))
        # and every other device as before
        unchanged, _ = flag_anomalies(clean, config)
        np.testing.assert_array_equal(flags[~mine], unchanged[~mine])

    @pytest.mark.parametrize("kind", ["mean overflows", "squares underflow"])
    def test_feature_that_cannot_be_standardised_is_screened_on_the_others(
        self, small_synth, caplog, kind
    ):
        clean = small_synth.clean
        config = IsolationForestConfig(contamination=0.05, seed=42)
        mine = clean["device_id"] == "dev1"
        if kind == "mean overflows":
            pm25 = clean["pm25"].copy()
            pm25[np.flatnonzero(mine)[:2]] = 1.7e308
        else:  # varies, but its spread is 0.0
            pm25 = np.where(mine, 1e-170 * (np.arange(len(clean)) % 2), clean["pm25"])
        odd = replace_columns(clean, pm25=pm25)
        flags, constant = flag_anomalies(odd, config)
        assert constant == {}
        assert "device dev1 has feature(s) ['pm25'] that cannot be standardised" in caplog.text
        varying = tuple(name for name in FEATURE_FIELDS if name != "pm25")
        scaled, _, _ = standardize(odd.take(mine), varying)
        np.testing.assert_array_equal(flags[mine], isolation_forest(scaled, config))
        unchanged, _ = flag_anomalies(clean, config)
        np.testing.assert_array_equal(flags[~mine], unchanged[~mine])

    def test_device_with_a_constant_and_an_unscalable_feature(self, small_synth, caplog, tmp_path):
        clean = small_synth.clean
        config = IsolationForestConfig(contamination=0.05, seed=42)
        mine = clean["device_id"] == "dev1"
        temperature = clean["temperature"].copy()
        temperature[np.flatnonzero(mine)[:2]] = 1.7e308
        odd = replace_columns(clean, pm25=np.where(mine, 5.0, clean["pm25"]), temperature=temperature)
        flags, constant = flag_anomalies(odd, config)
        assert constant == {"dev1": ["pm25"]}
        assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("device dev1 ")] == [
            "device dev1 has constant feature(s) ['pm25']; screening on the others",
            "device dev1 has feature(s) ['temperature'] that cannot be standardised; screening on the others",
        ]
        rest = tuple(name for name in FEATURE_FIELDS if name not in ("pm25", "temperature"))
        scaled, _, _ = standardize(odd.take(mine), rest)
        np.testing.assert_array_equal(flags[mine], isolation_forest(scaled, config))
        path = tmp_path / "odd.csv"
        write_records_csv(csv_lines(odd), path)
        manifest = run_pipeline(path, tmp_path / "out", contamination=0.05).manifest
        assert manifest["per_device"]["dev1"]["constant_features"] == ["pm25"]

    def test_device_without_a_varying_feature_passes_unflagged(self, small_synth):
        clean = small_synth.clean
        config = IsolationForestConfig(contamination=0.05, seed=42)
        mine = clean["device_id"] == "dev3"
        frozen = {name: np.where(mine, 1.0, clean[name]) for name in FEATURE_FIELDS}
        flags, constant = flag_anomalies(replace_columns(clean, **frozen), config)
        assert constant == {"dev3": list(FEATURE_FIELDS)}
        assert not flags[mine].any()
        assert int(flags[~mine].sum()) > 0


@pytest.fixture(scope="module")
def devices32(tmp_path_factory):
    """A 32-device table and its CSV: 60 rows per device, a constant ``pm25``
    on dev07, a ``co2`` whose mean overflows on dev10 and a lone row on dev31."""
    placements = [(f"dev{k:02d}", 2.0 + k, k % 3, k % 4) for k in range(31)]
    table = synth_dataset(rows_per_device=60, seed=32, duplicates_per_device=0,
                          placements=placements).records
    devices = table["device_id"]
    co2 = table["co2"].copy()
    co2[np.flatnonzero(devices == "dev10")[:2]] = 1.7e308
    table = replace_columns(table, pm25=np.where(devices == "dev07", 5.0, table["pm25"]), co2=co2)
    lone = replace_columns(table.take([0]), device_id=["dev31"])
    table = concat(table, lone)
    path = tmp_path_factory.mktemp("devices32") / "devices32.csv"
    write_records_csv(csv_lines(table), path)
    return table, path


class TestParallelScreen:
    """The per-device screens spread over forked processes give the results,
    warnings and files of one process, and leave no process behind."""

    @pytest.fixture(autouse=True)
    def bounded(self):
        """A screen that waits on a child for ever fails the test instead."""
        def expire(signum, frame):
            raise TimeoutError("the anomaly screen still waits after 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("corpus", ["a7", "devices32"])
    def test_flags_and_warnings_do_not_depend_on_the_cpus(self, corpus, a7_corpus, devices32, monkeypatch, caplog):
        table = a7_corpus[0].clean if corpus == "a7" else devices32[0]
        config = IsolationForestConfig(contamination=0.05, seed=42)
        got = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="loraprop.pipeline"):
                flags, constant = flag_anomalies(table, config)
            got.append((flags, constant, [(r.levelname, r.getMessage()) for r in caplog.records]))
            assert multiprocessing.active_children() == []
        (flags1, constant1, warned1), (flags2, constant2, warned2) = got
        np.testing.assert_array_equal(flags1, flags2)
        assert constant1 == constant2
        assert warned1 == warned2
        if corpus == "devices32":
            assert constant1 == {"dev07": ["pm25"]}
            assert [message.split(" has ")[0] for _, message in warned1] == ["device dev07", "device dev10", "device dev31"]
            assert int(flags1.sum()) == 31 * 3

    @pytest.mark.parametrize("corpus", ["a7", "devices32"])
    def test_pipeline_outputs_do_not_depend_on_the_cpus(self, corpus, a7_corpus, devices32, monkeypatch, tmp_path):
        path = a7_corpus[1] if corpus == "a7" else devices32[1]
        outputs = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            run_pipeline(path, tmp_path, seed=42, contamination=0.05)
            assert multiprocessing.active_children() == []
            outputs.append({name: (tmp_path / name).read_bytes()
                            for name in ("cleaned.csv", "train.csv", "test.csv", "manifest.json")})
        assert outputs[0] == outputs[1]

    def test_daemonic_process_screens_every_device_itself(self, devices32, monkeypatch):
        # a pool worker is daemonic, and a daemonic process may not start one
        use_cpus(monkeypatch, 2)
        config = IsolationForestConfig(contamination=0.05)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            flags, constant = pool.apply(flag_anomalies, (devices32[0], config))
        expected, _ = flag_anomalies(devices32[0], config)
        np.testing.assert_array_equal(flags, expected)
        assert constant == {"dev07": ["pm25"]}

    def test_shares_put_the_largest_device_on_the_lightest_share(self):
        devices = [(name, np.arange(size)) for name, size in (("a", 10), ("b", 300), ("c", 40), ("d", 290))]
        shares = pipeline._shares(devices, 2, 256)
        assert [[name for name, _ in share] for share in shares] == [["b", "a"], ["d", "c"]]

    @staticmethod
    def _in_child(monkeypatch, act):
        """Make ``isolation_forest`` call ``act`` in a forked child, as itself in the parent."""
        parent, screen = os.getpid(), pipeline.isolation_forest

        def isolation_forest(matrix, config):
            if os.getpid() != parent:
                act()
            return screen(matrix, config)

        monkeypatch.setattr(pipeline, "isolation_forest", isolation_forest)

    def test_error_in_a_child_is_raised_by_the_parent(self, devices32, monkeypatch, tmp_path):
        def fail():
            raise InvalidDataError("bad-child: screened in a child")

        use_cpus(monkeypatch, 2)
        self._in_child(monkeypatch, fail)
        with pytest.raises(InvalidDataError, match="^bad-child: screened in a child$"):
            run_pipeline(devices32[1], tmp_path, seed=42, contamination=0.05)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "manifest.json").exists()

    def test_float_error_in_a_child_ends_the_command(self, devices32, monkeypatch, tmp_path, caplog):
        # the child inherits the command's floating-point guard, so its
        # overflow is an error sent to the parent, not a warning
        from loraprop.cli import main

        use_cpus(monkeypatch, 2)
        self._in_child(monkeypatch, lambda: np.float64(1e308) * 10.0)
        out = tmp_path / "out"
        assert main(["pipeline", "run", "--input", str(devices32[1]), "--out-dir", str(out)]) == 1
        assert multiprocessing.active_children() == []
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "a computation left the float range: overflow encountered in scalar multiply"
        ]
        assert not (out / "manifest.json").exists()

    def test_child_that_dies_is_an_error_not_a_wait(self, devices32, monkeypatch):
        use_cpus(monkeypatch, 2)
        self._in_child(monkeypatch, lambda: os._exit(3))
        with pytest.raises(LorapropError, match="ended without a result"):
            flag_anomalies(devices32[0], IsolationForestConfig(contamination=0.05))
        assert multiprocessing.active_children() == []

    def test_error_in_the_parent_stops_the_children(self, devices32, monkeypatch):
        parent, screen = os.getpid(), pipeline.isolation_forest

        def isolation_forest(matrix, config):
            if os.getpid() == parent:
                raise InvalidDataError("bad-parent")
            return screen(matrix, config)

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(pipeline, "isolation_forest", isolation_forest)
        with pytest.raises(InvalidDataError, match="bad-parent"):
            flag_anomalies(devices32[0], IsolationForestConfig(contamination=0.05))
        assert multiprocessing.active_children() == []


class TestSplit:
    def test_sizes(self, small_synth):
        records = small_synth.clean.take(np.arange(min(1000, len(small_synth.clean))))
        train, test = split(records, SplitSpec(test_fraction=0.2, seed=1))
        assert len(test) == round(0.2 * len(records))
        assert len(train) + len(test) == len(records)

    def test_same_seed_same_partition(self, small_synth):
        spec = SplitSpec(seed=11)
        a = split(small_synth.clean, spec)
        b = split(small_synth.clean, spec)
        assert [t.tolist() for t in a] == [t.tolist() for t in b]

    def test_different_seed_differs(self, small_synth):
        a = split(small_synth.clean, SplitSpec(seed=1))
        b = split(small_synth.clean, SplitSpec(seed=2))
        assert [t.tolist() for t in a] != [t.tolist() for t in b]

    def test_partition_is_exact(self, small_synth):
        train, test = split(small_synth.clean, SplitSpec(seed=3))
        assert sorted(train.tolist() + test.tolist()) == list(range(len(small_synth.clean)))
        for index in (train, test):
            assert index.dtype.kind == "i"
            assert np.all(np.diff(index) > 0)

    @pytest.mark.parametrize("n, fraction", [(199, 0.999), (2, 0.2)])
    def test_empty_side_rejected(self, n, fraction):
        with pytest.raises(InvalidDataError, match="leaves one side empty"):
            split(make_table(f_count=range(n)), SplitSpec(test_fraction=fraction))

    def test_daily_distribution_sums_to_100(self, small_synth):
        shares = daily_distribution(small_synth.clean)
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_train_daily_share_tracks_population(self, small_synth):
        train, _ = split(small_synth.clean, SplitSpec(seed=5))
        all_shares = daily_distribution(small_synth.clean)
        train_shares = daily_distribution(small_synth.clean.take(train))
        for day, share in all_shares.items():
            assert abs(train_shares.get(day, 0.0) - share) < 2.0


class TestKfold:
    def test_equal_validation_sizes(self):
        records = make_table(f_count=range(10))
        folds = kfold(records, folds=5, seed=0)
        assert all(len(val) == 2 for _, val in folds)

    def test_cover_and_disjoint(self):
        records = make_table(f_count=range(23))
        folds = kfold(records, folds=5, seed=1)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(23))
        sizes = [len(val) for _, val in folds]
        assert max(sizes) - min(sizes) <= 1
        for train, val in folds:
            assert not set(train.tolist()) & set(val.tolist())
            assert len(train) + len(val) == 23

    def test_too_few_records(self):
        with pytest.raises(InvalidDataError):
            kfold(make_table(), folds=5, seed=0)


class TestRunPipeline:
    def test_counts_and_duplicate_removal(self, small_synth, small_synth_csv, tmp_path):
        result = run_pipeline(small_synth_csv, tmp_path / "out", seed=42, contamination=0.05)
        counts = result.manifest["counts"]
        assert counts["rows_read"] == len(small_synth.records)
        assert counts["rejected"] == 0
        assert counts["after_dedup"] == len(small_synth.clean)
        expected_sf = len(filter_sf(small_synth.clean))
        assert counts["after_sf_filter"] == expected_sf
        flagged = counts["anomalies_flagged"]
        assert counts["clean"] == expected_sf - flagged
        assert counts["train"] + counts["test"] == counts["clean"]

    def test_outputs_reingestable_and_manifest_valid(self, small_synth_csv, tmp_path):
        out = tmp_path / "out"
        result = run_pipeline(small_synth_csv, out, seed=42, contamination=0.05)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["clean"] == len(ingest(out / "cleaned.csv").records)
        assert manifest["counts"]["train"] == len(ingest(out / "train.csv").records)
        for device, info in manifest["per_device"].items():
            assert 0.0 < info["pdr"] <= 1.0

    def test_byte_identical_reruns(self, small_synth_csv, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_pipeline(small_synth_csv, out_a, seed=42, contamination=0.05)
        run_pipeline(small_synth_csv, out_b, seed=42, contamination=0.05)
        for name in ("cleaned.csv", "train.csv", "test.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_outputs_equal_tables_written_row_by_row(self, small_synth_csv, tmp_path):
        result = run_pipeline(small_synth_csv, tmp_path / "out", seed=42, contamination=0.05)
        train, test = result.clean.take(result.train_index), result.clean.take(result.test_index)
        tables = {"cleaned": result.clean, "train": train, "test": test}
        for name, table in tables.items():
            write_reference_csv(table, tmp_path / f"{name}.reference.csv")
            written = (tmp_path / "out" / f"{name}.csv").read_bytes()
            assert written == (tmp_path / f"{name}.reference.csv").read_bytes()
        assert record_keys(train) | record_keys(test) == record_keys(result.clean)
        assert not (record_keys(train) & record_keys(test))

    def test_train_and_test_are_the_split_rows_of_clean(self, small_synth_csv, tmp_path):
        result = run_pipeline(small_synth_csv, tmp_path / "out", seed=42, contamination=0.05)
        want = split(result.clean, SplitSpec(test_fraction=0.2, seed=42))
        assert all(np.array_equal(got, index) for got, index in zip((result.train_index, result.test_index), want))
        for name, index in zip(("train", "test"), want):
            assert rows_of(ingest(tmp_path / "out" / f"{name}.csv").records) == rows_of(result.clean.take(index))

    def test_peak_memory_is_a_small_multiple_of_the_ingested_table(self, a7_corpus, tmp_path):
        # each stage's input table is dropped once its output exists; holding
        # every stage's table to the end peaked at 8.5x the ingested columns
        _, path = a7_corpus
        records = ingest(path).records
        table_bytes = sum(records[name].nbytes for name in CSV_COLUMNS)
        del records
        gc.collect()
        tracemalloc.start()
        try:
            run_pipeline(path, tmp_path / "out", seed=42, contamination=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * table_bytes


class TestAtomicWrites:
    def test_failed_csv_rewrite_keeps_the_old_file(self, small_synth, tmp_path):
        path = tmp_path / "cleaned.csv"
        write_records_csv(csv_lines(small_synth.records.take(slice(0, 3))), path)
        old = path.read_bytes()
        served, open_files = [], []

        def failing_lines():
            for line in csv_lines(small_synth.records):
                if len(served) == 49:
                    # the new file is open and partly written when the 50th line fails
                    open_files.extend(sorted(p.name for p in tmp_path.iterdir()))
                    raise RuntimeError("disk full")
                served.append(line)
                yield line

        with pytest.raises(RuntimeError, match="disk full"):
            write_records_csv(failing_lines(), path)
        assert len(served) == 49
        assert len(open_files) == 2 and open_files[1] == "cleaned.csv"
        assert open_files[0].startswith(".cleaned.csv.") and open_files[0].endswith(".tmp")
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["cleaned.csv"]

    def test_failed_json_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "manifest.json"
        write_json(path, {"run": 1})
        old = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write_json(path, {"run": 2})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_non_finite_json_replaces_no_file(self, tmp_path):
        # what a model file holding NaN once showed through predict and evaluate
        path = tmp_path / "eval.json"
        write_json(path, {"run": 1})
        old = path.read_bytes()
        with pytest.raises(InvalidDataError, match="result holds a non-finite number"):
            write_json(path, {"run": math.nan})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]

    def test_new_files_are_written_whole(self, small_synth, tmp_path):
        write_json(tmp_path / "a.json", {"b": [1, 2], "a": None})
        assert (tmp_path / "a.json").read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'
        write_records_csv(csv_lines(small_synth.records), tmp_path / "a.csv")
        assert len(ingest(tmp_path / "a.csv").records) == len(small_synth.records)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json"]
