import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bitarq import (
    ConfigurationError,
    InvalidParameterError,
    LinkModel,
    ProtocolConfig,
    SlowChiSquareFading,
    ber_exact,
)
from bitarq.mc import compare_schemes, simulate
from bitarq.model import (MAX_SNR_DB, FixedWindow, check_whole_packets, round_half_away,
                          scheme_protocol, window_rate, window_size)
from bitarq.optimize import (equal_probability_thresholds, optimize_rate, optimize_threshold,
                             optimize_window, resolve_strategy)


# threshold ladders with negative, nan, infinite and decreasing entries
_LADDERS = st.lists(
    st.one_of(st.floats(-1.0, 4.0), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])),
    min_size=1, max_size=4,
)


def forward_rate(cfg: ProtocolConfig) -> float:
    """Realized forward rate of one packet under the config's fixed windows."""
    return simulate(cfg, LinkModel(1.0), "sequential", cfg.packet_bits, 0).forward_rate_realized


class TestForwardRate:
    # every round retransmits exactly W_d bits, so the rate is N / (N + sum(W_d))
    def test_basic(self):
        cfg = ProtocolConfig(100, 1, windows=(50,))
        assert forward_rate(cfg) == pytest.approx(2 / 3, rel=1e-15)

    def test_full_repetition_rate(self):
        cfg = ProtocolConfig(1000, 2, windows=(1000, 1000))
        assert forward_rate(cfg) == pytest.approx(1 / 3, rel=1e-15)

    def test_small_windows(self):
        cfg = ProtocolConfig(1064, 3, windows=(4, 4, 4))
        assert forward_rate(cfg) == pytest.approx(1064 / 1076, rel=1e-15)

    def test_requires_windows(self):
        with pytest.raises(ConfigurationError):
            forward_rate(ProtocolConfig(100, 1, strategy=FixedWindow(0.5)))

    @given(
        n=st.integers(8, 4096),
        d=st.integers(1, 4),
        data=st.data(),
    )
    def test_decreasing_in_each_window(self, n, d, data):
        ws = tuple(data.draw(st.integers(1, n - 1)) for _ in range(d))
        k = data.draw(st.integers(0, d - 1))
        bigger = tuple(w + 1 if i == k else w for i, w in enumerate(ws))
        r1 = forward_rate(ProtocolConfig(n, d, windows=ws))
        r2 = forward_rate(ProtocolConfig(n, d, windows=bigger))
        assert r2 < r1

    @given(n=st.integers(1, 4096), d=st.integers(1, 5))
    def test_whole_packet_windows_give_repetition_rate(self, n, d):
        cfg = ProtocolConfig(n, d, windows=(n,) * d)
        assert forward_rate(cfg) == pytest.approx(1 / (1 + d), rel=1e-14)


class TestWindowRule:
    @pytest.mark.parametrize("kind, x, message", [
        ("rate", 1 / 3, "rate 0.3333333333333333 outside the admissible interval "
                        "(0.3333333333333333, 0.998003992015968]"),
        ("rate", 0.999, "rate 0.999 outside the admissible interval "
                        "(0.3333333333333333, 0.998003992015968]"),
        ("window", 0.0, "window fraction 0.0 outside (0, 1]"),
        ("window", 1.5, "window fraction 1.5 outside (0, 1]"),
        ("power", 0.5, "unknown window strategy 'power'"),  # was read as a fraction: W = 500
    ])
    def test_out_of_range(self, kind, x, message):
        with pytest.raises(InvalidParameterError) as error:
            window_size(kind, x, 1000, 2)
        assert str(error.value) == message

    @given(n=st.integers(1, 4096), d=st.integers(1, 5), data=st.data())
    def test_window_rate_is_the_realized_rate(self, n, d, data):
        w = data.draw(st.integers(1, n))
        cfg = ProtocolConfig(n, d, windows=(w,) * d)
        assert window_rate(d, w / n) == pytest.approx(forward_rate(cfg), rel=1e-14)

    def test_sequential_window_carries_no_ladder(self):
        cfg, snr_eff = scheme_protocol("sequential", ("window", 0.2), 1024, 2, 2.0)
        assert cfg == ProtocolConfig(1024, 2, windows=(205, 205))
        assert snr_eff == 2.0 / (1.0 + 2 * 205 / 1024)

    def test_scheme_protocol_rejects_an_equalized_snr_that_underflows(self):
        for scheme in ("sequential", "preassigned"):
            with pytest.raises(InvalidParameterError, match="^snr must be positive"):
                scheme_protocol(scheme, ("window", 1.0), 10, 2, 5e-324)
        # full repetition's base / (1 + D) was not checked: it ran at an SNR of 0
        with pytest.raises(InvalidParameterError, match="^snr must be positive"):
            scheme_protocol("full_repetition", None, 10, 2, 5e-324)


class TestEffectiveSnr:
    def test_examples(self):
        # the base SNR scaled by the forward rate: 1/2, 1 and 2/3 here
        assert resolve_strategy("window", 1.0, 1, 2.0)[2] == pytest.approx(1.0)
        assert resolve_strategy("threshold", 0.0, 1, 1.0)[2] == pytest.approx(1.0)
        got = resolve_strategy("window", 0.5, 1, 10**0.5)[2]
        assert got == pytest.approx(2.1082, abs=5e-5)


class TestLinkModel:
    @pytest.mark.parametrize("snr", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_snr(self, snr):
        with pytest.raises(InvalidParameterError):
            LinkModel(snr)

    def test_snr_ceiling(self):
        ceiling = 10.0 ** (MAX_SNR_DB / 10.0)
        assert LinkModel(ceiling).snr_per_symbol == ceiling
        with pytest.raises(InvalidParameterError, match="100 dB"):
            LinkModel(1e30)

    def test_fading_validation(self):
        with pytest.raises(InvalidParameterError):
            SlowChiSquareFading(0.0)
        link = LinkModel(1.0, fading=SlowChiSquareFading(4.0))
        assert link.fading.mean_snr == 4.0

    def test_fading_must_be_a_descriptor(self):
        # a bare mean SNR was accepted, and ber_fading then raised a raw AttributeError
        with pytest.raises(InvalidParameterError, match="SlowChiSquareFading"):
            LinkModel(1.0, fading=3.0)

    @pytest.mark.parametrize("mean_snr", [1e300, math.inf, math.nan])
    def test_fading_mean_has_the_link_ceiling(self, mean_snr):
        # ber_fading returned -5.7e-302 at 1e300 and 0.0 at inf
        with pytest.raises(InvalidParameterError, match="100 dB"):
            SlowChiSquareFading(mean_snr)

    def test_every_awgn_computation_rejects_fading_with_one_message(self):
        # LinkModel.awgn_snr owns the AWGN-only rule of the design model and the Monte Carlo
        faded = LinkModel(3.0, fading=SlowChiSquareFading(3.0))
        ladder = ProtocolConfig(64, 2, thresholds=(0.6, 1.2))
        calls = [
            lambda: simulate(ladder, faded, "preassigned", 64, 0),
            lambda: compare_schemes(ladder, faded, 64),
            lambda: optimize_rate(64, 1, faded),
            lambda: optimize_window(64, 1, faded),
            lambda: optimize_threshold(64, 1, faded),
            lambda: equal_probability_thresholds(2, 0.2, faded),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ConfigurationError) as caught:
                call()
            messages.add(str(caught.value))
        assert messages == {"the design model and the Monte Carlo are AWGN only, not fading; "
                            "give a link without fading"}
        assert LinkModel(3.0).awgn_snr() == 3.0


class TestProtocolConfig:
    def test_threshold_ordering(self):
        with pytest.raises(InvalidParameterError):
            ProtocolConfig(100, 2, thresholds=(2.0, 1.0))
        cfg = ProtocolConfig(100, 2, thresholds=(1.0, 1.0))
        assert cfg.thresholds == (1.0, 1.0)

    def test_window_bounds(self):
        with pytest.raises(InvalidParameterError):
            ProtocolConfig(100, 1, windows=(0,))
        with pytest.raises(InvalidParameterError):
            ProtocolConfig(100, 1, windows=(101,))

    def test_length_checks(self):
        with pytest.raises(InvalidParameterError):
            ProtocolConfig(100, 2, thresholds=(1.0,))
        with pytest.raises(InvalidParameterError):
            ProtocolConfig(100, 2, windows=(3,))

    def test_rejects_nan_threshold(self):
        with pytest.raises(InvalidParameterError):
            ProtocolConfig(16, 1, thresholds=(math.nan,))

    @settings(deadline=None)
    @given(us=st.one_of(_LADDERS, _LADDERS.map(sorted)))
    @example(us=[0.5, math.inf])  # inf is a threshold
    @example(us=[math.inf, math.inf])
    @example(us=[-0.5, 1.0])
    @example(us=[1.0, math.nan])
    @example(us=[1.0, 0.5])
    @example(us=[-math.inf])
    def test_ladder_rule_matches_the_analytic_one(self, us):
        # the config wrote its own two checks with other messages
        def outcome(call):
            try:
                call()
            except InvalidParameterError as error:
                return str(error)
            return None

        assert outcome(lambda: ProtocolConfig(16, len(us), thresholds=us)) == outcome(
            lambda: ber_exact(10**0.5, us)
        )

    @pytest.mark.parametrize("args, kwargs, match", [
        ((1.5, 1), {}, "packet_bits must be an integer"),  # was accepted
        ((100, 1), {"windows": (2.7,)}, "window size must be an integer"),  # was truncated to 2
        # reported a window-count mismatch
        ((100, 1.5), {"windows": (2,)}, "retransmissions must be an integer"),
        ((100, True), {}, "retransmissions must be an integer"),
    ])
    def test_integer_fields_reject_non_integers(self, args, kwargs, match):
        with pytest.raises(InvalidParameterError, match=match):
            ProtocolConfig(*args, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"thresholds": ("a",)},  # raw ValueError from float()
        {"thresholds": (None,)},  # raw TypeError from float()
        {"thresholds": 1.0},  # raw TypeError: not iterable
        {"windows": 3},  # raw TypeError: not iterable
    ], ids=repr)
    def test_malformed_sequences_raise_typed_errors(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ProtocolConfig(8, 1, **kwargs)

    def test_numpy_integers_are_accepted_as_ints(self):
        cfg = ProtocolConfig(np.int64(100), np.int32(2), windows=(np.int16(3), np.uint8(4)))
        assert (cfg.packet_bits, cfg.retransmissions, cfg.windows) == (100, 2, (3, 4))
        assert all(type(v) is int for v in (cfg.packet_bits, cfg.retransmissions, *cfg.windows))


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.49) == 2


@pytest.mark.parametrize("bits", [1000, 1025, 0, -1024])
def test_whole_packet_rule(bits):
    check_whole_packets(3072, 1024)
    with pytest.raises(InvalidParameterError, match="positive multiple of packet_bits"):
        check_whole_packets(bits, 1024)


def test_simulate_applies_the_whole_packet_rule():
    with pytest.raises(InvalidParameterError, match="positive multiple of packet_bits"):
        simulate(ProtocolConfig(1024, 0), LinkModel(1.0), "sequential", 1000, 0)
