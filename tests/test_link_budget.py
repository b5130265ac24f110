import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from loraprop.errors import InvalidConfigError, InvalidDataError
from loraprop.link_budget import (
    DEFAULT_LINK_BUDGET,
    SF_THRESHOLDS,
    LinkBudgetParams,
    esp,
    experimental_path_loss,
    load_link_budget,
    noise_power,
    receivable,
    snr_required,
)

finite_rssi = st.floats(min_value=-140.0, max_value=-20.0)
finite_snr = st.floats(min_value=-25.0, max_value=20.0)


class TestEsp:
    def test_zero_snr_splits_power_evenly(self):
        expected = -73.0 - 10.0 * math.log10(2.0)
        assert esp(-73.0, 0.0) == pytest.approx(expected, abs=1e-12)
        assert esp(-73.0, 0.0) == pytest.approx(-76.0103, abs=1e-4)

    def test_high_snr_asymptote_is_rssi(self):
        assert esp(-73.0, 500.0) == pytest.approx(-73.0, abs=1e-9)
        assert esp(-73.0, 5000.0) == pytest.approx(-73.0, abs=1e-9)

    def test_low_snr_example(self):
        expected = -100.0 - 20.0 - 10.0 * math.log10(1.01)
        assert esp(-100.0, -20.0) == pytest.approx(expected, abs=1e-12)
        assert esp(-100.0, -20.0) == pytest.approx(-120.0432, abs=1e-4)

    @given(rssi=finite_rssi, snr=finite_snr, bump=st.floats(0.001, 5.0))
    def test_strictly_increasing_in_rssi(self, rssi, snr, bump):
        assert esp(rssi + bump, snr) > esp(rssi, snr)


class TestNoisePower:
    def test_zero_snr_equals_esp(self):
        assert noise_power(-73.0, 0.0) == pytest.approx(esp(-73.0, 0.0), abs=1e-12)

    @given(rssi=finite_rssi, snr=finite_snr, bump=st.floats(0.001, 5.0))
    def test_strictly_decreasing_in_snr(self, rssi, snr, bump):
        assert noise_power(rssi, snr + bump) < noise_power(rssi, snr)

    def test_dataset_mean_order_of_magnitude(self):
        # means do not commute through the nonlinearity, so this is a sanity
        # order check against the published column mean (-86.025) only
        value = noise_power(-76.903, 7.419)
        assert value == pytest.approx(-85.05, abs=0.2)
        assert abs(value - (-86.025)) < 1.5


class TestIdentities:
    @given(rssi=finite_rssi, snr=finite_snr)
    def test_esp_minus_noise_is_snr(self, rssi, snr):
        assert esp(rssi, snr) - noise_power(rssi, snr) == pytest.approx(snr, abs=1e-9)

    @given(rssi=finite_rssi, snr=finite_snr)
    def test_linear_power_conservation(self, rssi, snr):
        total = 10 ** (rssi / 10.0)
        parts = 10 ** (esp(rssi, snr) / 10.0) + 10 ** (noise_power(rssi, snr) / 10.0)
        assert parts == pytest.approx(total, rel=1e-9)


class TestExperimentalPathLoss:
    def test_offset_is_17_26(self):
        assert DEFAULT_LINK_BUDGET.link_offset_db == pytest.approx(17.26, abs=1e-9)

    def test_published_extremes(self):
        assert experimental_path_loss(DEFAULT_LINK_BUDGET, -128.0) == pytest.approx(
            145.26, abs=1e-9
        )
        assert experimental_path_loss(DEFAULT_LINK_BUDGET, -28.0) == pytest.approx(
            45.26, abs=1e-9
        )

    def test_zero_gain_link_reflects_rssi(self):
        neutral = LinkBudgetParams(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
        assert experimental_path_loss(neutral, 0.0) == 0.0
        assert experimental_path_loss(neutral, -50.0) == 50.0

    @given(rssi=finite_rssi)
    def test_linear_in_rssi(self, rssi):
        assert experimental_path_loss(DEFAULT_LINK_BUDGET, rssi) == pytest.approx(
            17.26 - rssi, abs=1e-9
        )


class TestReceivable:
    def test_above_both_thresholds(self):
        assert receivable(-120.0, -5.0, 7) is True

    def test_below_sensitivity(self):
        assert receivable(-124.0, 0.0, 7) is False

    def test_sf12_edge(self):
        assert receivable(-136.0, -19.0, 12) is True

    def test_snr_alone_insufficient(self):
        assert receivable(-138.0, 10.0, 12) is False

    def test_unknown_sf(self):
        with pytest.raises(InvalidDataError, match=re.escape("bad-SF: 6 outside [7, 12]")):
            receivable(-100.0, 0.0, 6)


class TestThresholdTable:
    def test_steps_of_2_5_db(self):
        for sf in range(7, 13):
            expected = -7.5 - 2.5 * (sf - 7)
            assert SF_THRESHOLDS[sf].snr_req_db == pytest.approx(expected)

    def test_sensitivity_endpoints(self):
        assert SF_THRESHOLDS[7].sensitivity_dbm == -123.0
        assert SF_THRESHOLDS[12].sensitivity_dbm == -137.0

    def test_snr_required_helper(self):
        assert snr_required(7) == -7.5
        with pytest.raises(InvalidDataError, match=re.escape("bad-SF: 42 outside [7, 12]")):
            snr_required(42)


class TestParamsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "link.json"
        path.write_text(
            json.dumps(
                {
                    "tx_power_dbm": 14.0,
                    "tx_cable_loss_db": 0.14,
                    "tx_antenna_gain_dbi": 0.4,
                    "rx_antenna_gain_dbi": 3.0,
                    "rx_cable_loss_db": 0.0,
                    "tx_antenna_height_m": 0.8,
                    "rx_antenna_height_m": 1.0,
                }
            )
        )
        assert load_link_budget(path) == DEFAULT_LINK_BUDGET

    def test_invariants(self):
        with pytest.raises(InvalidConfigError):
            LinkBudgetParams(14.0, -0.1, 0.4, 3.0, 0.0, 0.8, 1.0)
        with pytest.raises(InvalidConfigError):
            LinkBudgetParams(14.0, 0.1, 0.4, 3.0, 0.0, 0.0, 1.0)
