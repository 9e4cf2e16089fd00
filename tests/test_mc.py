import math

import numpy as np
import pytest

from bitarq import (
    ConfigurationError,
    FixedThreshold,
    FixedWindow,
    InvalidParameterError,
    LinkModel,
    ProtocolConfig,
    q_function,
)
from bitarq.analytic import _band_prob, _ber_exact, _prob_retx
from bitarq.mc import _window_mask, compare_schemes, simulate
from bitarq.optimize import equal_probability_thresholds

LINK1 = LinkModel(1.0)
LINK5 = LinkModel(10**0.5)


def sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1 - p) / n)


class TestWindowMask:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(11)
        rel = np.abs(rng.normal(size=(8, 64)))
        mask = _window_mask(rel, 16)
        assert (mask.sum(axis=1) == 16).all()
        for row, picked in zip(rel, mask):
            assert set(np.flatnonzero(picked)) == set(np.argsort(row)[:16])


class TestSimulateBaselines:
    def test_uncoded(self):
        rep = simulate(ProtocolConfig(1000, 0), LINK1, "sequential", 2_000_000, seed=1)
        p = float(q_function(math.sqrt(2)))
        assert abs(rep.ber - p) < 3 * sigma(p, rep.bits_simulated)
        assert rep.retransmitted_bits == ()
        assert rep.forward_rate_realized == 1.0

    def test_full_repetition(self):
        rep = simulate(
            ProtocolConfig(1000, 1), LINK1, "full_repetition", 2_000_000, seed=2
        )
        p = float(q_function(2.0))
        assert abs(rep.ber - p) < 3 * sigma(p, rep.bits_simulated)
        assert rep.retransmitted_bits == (2_000_000,)
        assert rep.forward_rate_realized == pytest.approx(0.5)

    def test_preassigned_matches_quadrature(self):
        us = equal_probability_thresholds(1, 0.3, LINK5)
        cfg = ProtocolConfig(1000, 1, strategy=FixedWindow(0.3), thresholds=us)
        rep = simulate(cfg, LINK5, "preassigned", 2_000_000, seed=3)
        p = _ber_exact(LINK5.snr_per_symbol, us)
        assert abs(rep.ber - p) < 3 * sigma(p, rep.bits_simulated)


class TestSimulateBehavior:
    def test_deterministic(self):
        cfg = ProtocolConfig(500, 2, thresholds=(0.6, 1.2))
        a = simulate(cfg, LINK5, "preassigned", 500_000, seed=42)
        b = simulate(cfg, LINK5, "preassigned", 500_000, seed=42)
        assert a == b

    def test_block_and_thread_invariance(self):
        cfg = ProtocolConfig(500, 1, thresholds=(0.8,))
        a = simulate(cfg, LINK5, "sequential", 500_000, seed=9, block_packets=100)
        b = simulate(cfg, LINK5, "sequential", 500_000, seed=9, block_packets=100, n_jobs=4)
        assert a == b

    def test_sequential_windows_track_round_fractions(self):
        us = equal_probability_thresholds(2, 0.3, LINK5)
        cfg = ProtocolConfig(1000, 2, thresholds=us)
        rep = simulate(cfg, LINK5, "sequential", 2_000_000, seed=4)
        m = math.sqrt(2 * LINK5.snr_per_symbol)
        n = rep.bits_simulated
        p0 = _band_prob(m, 0.0, us[0])
        p1 = _prob_retx(1, LINK5.snr_per_symbol, us)
        assert abs(rep.retransmitted_bits[0] / n - p0) < 3 * sigma(p0, n)
        assert abs(rep.retransmitted_bits[1] / n - p1) < 3 * sigma(p1, n)

    def test_fixed_threshold_windows_track_band_probabilities(self):
        u = 1.0
        cfg = ProtocolConfig(1000, 2, strategy=FixedThreshold(u), thresholds=(u, u))
        rep = simulate(cfg, LINK5, "sequential", 2_000_000, seed=12)
        snr = LINK5.snr_per_symbol
        m = math.sqrt(2 * snr)
        n = rep.bits_simulated
        p0 = _band_prob(m, 0.0, u)
        p1 = _prob_retx(1, snr, (u, u))
        assert abs(rep.retransmitted_bits[0] / n - p0) < 3 * sigma(p0, n)
        assert abs(rep.retransmitted_bits[1] / n - p1) < 3 * sigma(p1, n)

    def test_realized_rate_consistent(self):
        us = equal_probability_thresholds(1, 0.25, LINK5)
        cfg = ProtocolConfig(1000, 1, thresholds=us)
        rep = simulate(cfg, LINK5, "sequential", 1_000_000, seed=5)
        n_f = rep.bits_simulated + sum(rep.retransmitted_bits)
        assert rep.forward_rate_realized == pytest.approx(
            rep.bits_simulated / n_f, rel=1e-12
        )

    def test_randomized_data_symmetry(self):
        cfg = ProtocolConfig(1000, 1, thresholds=(0.8,))
        a = simulate(cfg, LINK1, "preassigned", 2_000_000, seed=6)
        b = simulate(cfg, LINK1, "preassigned", 2_000_000, seed=6, randomize_data=True)
        se = math.sqrt(2.0) * 3 * sigma(a.ber, a.bits_simulated)
        assert abs(a.ber - b.ber) < se

    def test_window_selection_variants_agree_for_one_round(self):
        cfg = ProtocolConfig(500, 1, windows=(100,))
        a = simulate(cfg, LINK5, "sequential", 500_000, seed=7)
        b = simulate(cfg, LINK5, "sequential", 500_000, seed=7, resort_each_round=False)
        assert a == b

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            simulate(ProtocolConfig(1000, 0), LINK1, "sequential", 1500, seed=0)
        with pytest.raises(ConfigurationError):
            simulate(ProtocolConfig(1000, 0), LINK1, "bogus", 1000, seed=0)
        with pytest.raises(ConfigurationError):
            simulate(ProtocolConfig(1000, 1), LINK1, "preassigned", 1000, seed=0)
        with pytest.raises(ConfigurationError):
            cfg = ProtocolConfig(1000, 1, strategy=FixedThreshold(0.5), thresholds=(0.5,))
            simulate(cfg, LINK1, "full_repetition", 1000, seed=0)


class TestCompareSchemes:
    def test_huge_thresholds_coincide(self):
        cfg = ProtocolConfig(1000, 2, thresholds=(50.0, 50.0))
        s, p = compare_schemes(cfg, LINK5, 500_000, seed=8)
        assert s == p

    def test_zero_thresholds_coincide(self):
        cfg = ProtocolConfig(1000, 2, thresholds=(0.0, 0.0))
        s, p = compare_schemes(cfg, LINK5, 500_000, seed=9)
        assert s == p

    def test_requires_two_rounds(self):
        cfg = ProtocolConfig(1000, 1, thresholds=(1.0,))
        with pytest.raises(ConfigurationError):
            compare_schemes(cfg, LINK5, 100_000)

    def test_preassigned_not_worse_at_moderate_thresholds(self):
        us = equal_probability_thresholds(2, 0.35, LINK1)
        cfg = ProtocolConfig(1000, 2, thresholds=us)
        s, p = compare_schemes(cfg, LINK1, 4_000_000, seed=10)
        # extra combining of the preassigned scheme can only help, up to noise
        assert p <= s + 3 * sigma(s, 4_000_000)
