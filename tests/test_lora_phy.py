import pytest
from hypothesis import given, strategies as st

from loraprop.errors import InvalidConfigError
from loraprop.lora_phy import (
    LORA_BANDWIDTHS_HZ,
    RadioConfig,
    bit_rate,
    duty_cycle,
    payload_symbols,
    symbol_duration,
    time_on_air,
)

#: The reference uplink configuration: 18-byte payload, CRC on, implicit
#: header, no low-data-rate optimisation, CR 4/5, 8-symbol preamble.
REFERENCE = dict(payload_bytes=18, cr_index=1, crc_on=True, implicit_header=True)


def cfg(sf=7, bw=125_000.0, **kw):
    merged = {**REFERENCE, **kw}
    return RadioConfig(sf=sf, bw_hz=bw, **merged)


radio_configs = st.builds(
    RadioConfig,
    sf=st.integers(7, 12),
    bw_hz=st.sampled_from([125_000.0, 250_000.0, 500_000.0]),
    payload_bytes=st.integers(1, 255),
    cr_index=st.integers(1, 4),
    preamble_symbols=st.integers(6, 16),
    crc_on=st.booleans(),
    implicit_header=st.booleans(),
    low_dr_opt=st.booleans(),
)


class TestSymbolDuration:
    def test_sf7_125khz(self):
        assert symbol_duration(cfg(7)) == pytest.approx(1.024e-3, abs=1e-12)

    def test_sf12_125khz(self):
        # direct evaluation: 2^12 / 125000 = 0.032768 s
        assert symbol_duration(cfg(12)) == pytest.approx(4096 / 125_000, rel=1e-15)

    def test_sf7_250khz_halves(self):
        assert symbol_duration(cfg(7, bw=250_000.0)) == pytest.approx(0.512e-3, abs=1e-12)

    @given(sf=st.integers(7, 11), bw=st.sampled_from([125_000.0, 250_000.0]))
    def test_doubles_per_sf_increment(self, sf, bw):
        lower = symbol_duration(cfg(sf, bw=bw))
        upper = symbol_duration(cfg(sf + 1, bw=bw))
        assert upper == pytest.approx(2.0 * lower, rel=1e-12)


class TestBitRate:
    def test_sf7(self):
        assert bit_rate(cfg(7)) == pytest.approx(5468.75, rel=1e-12)

    def test_sf12(self):
        expected = 12 * 125_000 / 4096 * (4 / 5)  # = 292.96875
        assert bit_rate(cfg(12)) == pytest.approx(expected, rel=1e-12)
        assert bit_rate(cfg(12)) == pytest.approx(292.97, abs=5e-3)

    @given(sf=st.integers(7, 12), cr=st.integers(1, 4))
    def test_linear_in_bandwidth(self, sf, cr):
        narrow = bit_rate(cfg(sf, bw=125_000.0, cr_index=cr))
        wide = bit_rate(cfg(sf, bw=250_000.0, cr_index=cr))
        assert wide == pytest.approx(2.0 * narrow, rel=1e-12)


class TestPayloadSymbols:
    def test_reference_config_sf7(self):
        assert payload_symbols(cfg(7)) == 33

    def test_reference_config_sf9(self):
        # (8*18 - 4*9 + 28 + 16 - 20) = 132, /36 -> ceil 4, *5 -> 20, +8
        assert payload_symbols(cfg(9)) == 28

    def test_negative_numerator_clamps_to_floor(self):
        # 8*1 - 4*12 + 28 + 0 - 20 = -32 < 0 -> the 8-symbol floor
        floor_cfg = cfg(12, payload_bytes=1, crc_on=False, implicit_header=True)
        assert payload_symbols(floor_cfg) == 8

    @given(radio_configs)
    def test_integer_and_at_least_eight(self, config):
        n = payload_symbols(config)
        assert isinstance(n, int)
        assert n >= 8

    def test_exact_boundary_has_no_roundoff_spill(self):
        # numerator 140 / denominator 28 = 5 exactly; a float ceil that lands
        # at 5.0000000001 would add a whole extra block of 5 symbols
        assert payload_symbols(cfg(7)) == 8 + 5 * 5


class TestTimeOnAir:
    def test_reference_example(self):
        assert time_on_air(cfg(7)) == pytest.approx(46.336e-3, abs=1e-9)

    def test_five_per_hour_airtime(self):
        total_ms = 5 * time_on_air(cfg(7)) * 1e3
        assert total_ms == pytest.approx(231.68, abs=1e-6)

    def test_floor_case_equals_minimal_frame(self):
        floor_cfg = cfg(12, payload_bytes=1, crc_on=False, implicit_header=True)
        expected = (8 + 4.25 + 8) * symbol_duration(floor_cfg)
        assert time_on_air(floor_cfg) == pytest.approx(expected, rel=1e-15)

    @given(sf=st.integers(7, 12), payload=st.integers(1, 254))
    def test_strictly_increasing_in_payload(self, sf, payload):
        lo = time_on_air(cfg(sf, payload_bytes=payload))
        hi = time_on_air(cfg(sf, payload_bytes=payload + 1))
        assert hi >= lo
        # a payload step of 16 bytes always crosses a block boundary
        hi16 = time_on_air(cfg(sf, payload_bytes=min(payload + 16, 255)))
        if payload + 16 <= 255:
            assert hi16 > lo

    @given(sf=st.integers(7, 11), payload=st.integers(1, 255))
    def test_strictly_increasing_in_sf(self, sf, payload):
        assert time_on_air(cfg(sf + 1, payload_bytes=payload)) > time_on_air(
            cfg(sf, payload_bytes=payload)
        )

    @given(sf=st.integers(7, 12), payload=st.integers(1, 200))
    def test_throughput_monotone_in_payload(self, sf, payload):
        # ToA * bit rate tracks 8*PL up to framing overhead; checked as
        # monotonicity only
        a = time_on_air(cfg(sf, payload_bytes=payload)) * bit_rate(cfg(sf))
        b = time_on_air(cfg(sf, payload_bytes=payload + 50)) * bit_rate(cfg(sf))
        assert b >= a

    def test_end_to_end_rederivation(self):
        c = cfg(7)
        assert symbol_duration(c) * 1e3 == pytest.approx(1.024, abs=1e-9)
        assert payload_symbols(c) == 33
        assert time_on_air(c) * 1e3 == pytest.approx(46.336, abs=1e-6)


class TestDutyCycle:
    def test_single_entry(self):
        report = duty_cycle([(cfg(7), 5)])
        assert report.total_airtime_ms_per_hour == pytest.approx(231.68, abs=1e-6)
        assert report.duty_cycle_fraction == pytest.approx(231.68 / 3.6e6, rel=1e-9)
        assert report.duty_cycle_fraction == pytest.approx(6.44e-5, abs=1e-7)
        assert report.compliant
        assert report.per_sf_airtime_ms[7] == pytest.approx(231.68, abs=1e-6)

    def test_empty_schedule(self):
        report = duty_cycle([])
        assert report.total_airtime_ms_per_hour == 0.0
        assert report.duty_cycle_fraction == 0.0
        assert report.compliant
        assert report.per_sf_airtime_ms == {}

    def test_exceeding_limit_flags_non_compliant(self):
        # SF12 reference frame is ~1.16 s; 32 per hour breaches a 1% cap
        report = duty_cycle([(cfg(12, low_dr_opt=True), 32)])
        assert report.duty_cycle_fraction > 0.01
        assert not report.compliant

    def test_per_entry_violations(self):
        quiet = (cfg(7), 5)
        loud = (cfg(12, low_dr_opt=True), 40)
        report = duty_cycle([quiet, loud], limit=0.01)
        assert report.violations == (1,)

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidConfigError):
            duty_cycle([(cfg(7), -1)])


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sf=6, bw_hz=125e3, payload_bytes=18),
            dict(sf=13, bw_hz=125e3, payload_bytes=18),
            dict(sf=7, bw_hz=0.0, payload_bytes=18),
            dict(sf=7, bw_hz=-1.0, payload_bytes=18),
            dict(sf=7, bw_hz=1e-300, payload_bytes=18),
            dict(sf=7, bw_hz=100e3, payload_bytes=18),
            dict(sf=7, bw_hz=float("nan"), payload_bytes=18),
            dict(sf=7, bw_hz=125e3, payload_bytes=0),
            dict(sf=7, bw_hz=125e3, payload_bytes=256),
            dict(sf=7, bw_hz=125e3, payload_bytes=18, cr_index=0),
            dict(sf=7, bw_hz=125e3, payload_bytes=18, cr_index=5),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            RadioConfig(**kwargs)

    @pytest.mark.parametrize("bw_hz", LORA_BANDWIDTHS_HZ)
    def test_every_lora_bandwidth_accepted(self, bw_hz):
        assert symbol_duration(RadioConfig(sf=7, bw_hz=bw_hz, payload_bytes=18)) == 128 / bw_hz
