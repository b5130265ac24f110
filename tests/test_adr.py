import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loraprop.adr import AdrDecision, AdrState, adr_step, record_snr, snr_margin
from loraprop.errors import InvalidConfigError, InvalidDataError


def state(sf=7, power=14.0, history=(), **kw):
    return AdrState(current_sf=sf, current_power_dbm=power, snr_history=tuple(history), **kw)


class TestSnrMargin:
    def test_reference_example(self):
        s = state(sf=7, history=[9.5, 1.0, -3.0], fade_margin_db=10.0)
        assert snr_margin(s) == pytest.approx(7.0)

    def test_boundary_zero(self):
        s = state(sf=7, history=[-7.5], fade_margin_db=0.0)
        assert snr_margin(s) == pytest.approx(0.0)

    def test_sf12_negative(self):
        s = state(sf=12, history=[-20.0], fade_margin_db=10.0)
        assert snr_margin(s) == pytest.approx(-10.0)

    def test_empty_history(self):
        with pytest.raises(InvalidDataError):
            snr_margin(state(history=[]))

    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=20), st.randoms())
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert snr_margin(state(sf=9, history=values)) == snr_margin(
            state(sf=9, history=shuffled)
        )


class TestAdrStep:
    def test_positive_margin_lowers_sf(self):
        s = state(sf=8, history=[7.0], fade_margin_db=10.0)  # margin = 7.0
        assert snr_margin(s) == pytest.approx(7.0)
        new, decision = adr_step(s)
        assert decision is AdrDecision.LOWER_SF
        assert new.current_sf == 7

    def test_power_raise_clamped_to_max(self):
        s = state(sf=7, power=12.0, history=[-0.5], max_power_dbm=14.0, power_step_db=2.0)
        assert snr_margin(s) == pytest.approx(-3.0)
        new, decision = adr_step(s)
        assert decision is AdrDecision.RAISE_POWER
        assert new.current_power_dbm == 14.0

    def test_already_at_power_ceiling(self):
        s = state(sf=7, power=14.0, history=[-0.5], max_power_dbm=14.0, power_step_db=2.0)
        new, decision = adr_step(s)
        assert decision is AdrDecision.NO_CHANGE
        assert new == s

    def test_positive_margin_at_min_sf(self):
        s = state(sf=7, history=[20.0])
        new, decision = adr_step(s)
        assert decision is AdrDecision.NO_CHANGE
        assert new.current_sf == 7

    def test_negative_margin_above_min_sf_logged(self, caplog):
        s = state(sf=10, history=[-30.0])
        with caplog.at_level(logging.WARNING, logger="loraprop.adr"):
            new, decision = adr_step(s)
        assert decision is AdrDecision.NO_CHANGE
        assert new == s
        assert any("leaving unchanged" in r.message for r in caplog.records)

    def test_constant_positive_margin_reaches_floor_in_exact_steps(self):
        s = state(sf=12, history=[30.0])
        steps = 0
        while True:
            s, decision = adr_step(s)
            if decision is not AdrDecision.LOWER_SF:
                break
            steps += 1
        assert steps == 12 - 7
        assert s.current_sf == 7


class TestHistoryWindow:
    def test_record_appends(self):
        s = record_snr(state(history=[1.0]), 2.0)
        assert s.snr_history == (1.0, 2.0)

    def test_capacity_evicts_oldest(self):
        s = state(history=range(20), history_capacity=20)
        s = record_snr(s, 99.0)
        assert len(s.snr_history) == 20
        assert s.snr_history[0] == 1.0
        assert s.snr_history[-1] == 99.0

    def test_invariant_violations(self):
        with pytest.raises(InvalidConfigError):
            state(sf=6)
        with pytest.raises(InvalidConfigError):
            state(power=20.0, max_power_dbm=14.0)
        with pytest.raises(InvalidConfigError):
            state(history=range(30), history_capacity=20)

    @pytest.mark.parametrize(
        "fields, message",
        [
            # each of these was accepted and replayed as a margin or power of 1e+300
            ({"power": -1e300, "max_power_dbm": 1e300}, "current_power_dbm must be in [-200.0, 30.0], got -1e+300"),
            ({"power": 14.0, "max_power_dbm": 1e300}, "max_power_dbm must be in [-200.0, 30.0], got 1e+300"),
            ({"fade_margin_db": 1e300}, "fade_margin_db must be in [0.0, 64.0], got 1e+300"),
            ({"fade_margin_db": -1e300}, "fade_margin_db must be in [0.0, 64.0], got -1e+300"),
            ({"fade_margin_db": -0.5}, "fade_margin_db must be in [0.0, 64.0], got -0.5"),
            ({"power_step_db": -5.0}, "power_step_db must be in (0, 230.0], got -5.0"),
            ({"power_step_db": 0.0}, "power_step_db must be in (0, 230.0], got 0.0"),
            ({"power_step_db": 230.5}, "power_step_db must be in (0, 230.0], got 230.5"),
        ],
    )
    def test_power_margin_and_step_outside_their_intervals_rejected(self, fields, message):
        with pytest.raises(InvalidConfigError) as info:
            state(**fields)
        assert str(info.value) == message

    def test_interval_ends_accepted(self):
        state(power=-200.0, max_power_dbm=30.0, fade_margin_db=64.0, power_step_db=230.0)
        state(power=-200.0, max_power_dbm=-200.0, fade_margin_db=0.0, power_step_db=5e-324)

    @pytest.mark.parametrize("sf, min_sf", [(5, 5), (12, 6), (12, 13)])
    def test_min_sf_outside_the_sf_range_rejected(self, sf, min_sf):
        # min_sf 5 with sf 5 passed and failed at the first frame in snr_required
        with pytest.raises(InvalidConfigError, match=f"min_sf must be in 7..12, got {min_sf}"):
            state(sf=sf, min_sf=min_sf)


class TestClampInvariants:
    def test_random_walk_respects_clamps(self):
        rng = np.random.default_rng(1234)
        s = state(sf=12, power=8.0, history=[0.0], max_power_dbm=14.0)
        for _ in range(10_000):
            s = record_snr(s, float(rng.uniform(-30.0, 15.0)))
            s, _ = adr_step(s)
            assert s.min_sf <= s.current_sf <= 12
            assert s.current_power_dbm <= s.max_power_dbm
            assert len(s.snr_history) <= s.history_capacity
