import math

import numpy as np
import pytest

from bitarq import InvalidParameterError, LinkModel, ProtocolConfig, prob_retx_band, q_function
from bitarq.analytic import (_band_prob, _ber_approx, _ber_exact, _retx_fraction,
    _shared_threshold_fractions, DEFAULT_PRONY)
from bitarq.optimize import (
    equal_probability_thresholds,
    fixed_threshold_rate,
    fixed_threshold_windows,
    golden_section,
    is_unimodal,
    optimize_rate,
    optimize_threshold,
    optimize_window,
    resolve_strategy,
)

LINK5 = LinkModel(10**0.5)


class TestGoldenSection:
    def test_quadratic(self):
        x, fx = golden_section(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-4)
        assert fx == pytest.approx(1.0, abs=1e-8)

    def test_stopping_width_scales_with_interval(self):
        x, _ = golden_section(lambda x: (x - 30.0) ** 2, 0.0, 100.0)
        assert x == pytest.approx(30.0, abs=100.0 * 1e-4)


class TestUnimodal:
    def test_patterns(self):
        assert is_unimodal([5, 3, 2, 4, 9])
        assert is_unimodal([5, 4, 3])
        assert is_unimodal([1, 2, 3])
        assert not is_unimodal([5, 3, 4, 2])

    def test_tolerance_ignores_jitter(self):
        assert is_unimodal([5.0, 3.0, 3.0 + 1e-15, 2.0, 4.0], atol=1e-12)


class TestThresholdInversion:
    def test_residuals(self):
        for p in (0.1, 0.3, 0.6):
            us = equal_probability_thresholds(3, p, LINK5)
            snr = LINK5.snr_per_symbol
            m = math.sqrt(2 * snr)
            assert _band_prob(m, 0.0, us[0]) == pytest.approx(p, abs=1e-8)
            for j in (1, 2):
                assert _retx_fraction(j, snr, us[: j + 1])[0] == pytest.approx(p, abs=1e-8)

    def test_thresholds_nondecreasing(self):
        us = equal_probability_thresholds(3, 0.25, LINK5)
        assert all(a <= b for a, b in zip(us, us[1:]))

    def test_degenerate_probabilities(self):
        assert equal_probability_thresholds(2, 1.0, LINK5) == (math.inf, math.inf)
        with pytest.raises(InvalidParameterError):
            equal_probability_thresholds(2, 0.0, LINK5)


class TestFixedThresholdWindows:
    def test_windows_shrink_with_rounds(self):
        # reliabilities only improve with combining at a sub-mean threshold
        u = 0.8 * math.sqrt(2 * LINK5.snr_per_symbol)
        ws = fixed_threshold_windows(1024, 3, u, LINK5.snr_per_symbol)
        assert all(a >= b for a, b in zip(ws, ws[1:]))

    def test_zero_threshold(self):
        assert fixed_threshold_windows(1024, 2, 0.0, 1.0) == (0, 0)


class TestResolveStrategy:
    def test_rate_and_window_resolve_alike(self):
        # rate 1/(1 + d p) and window fraction p name the same protocol
        d, p = 2, 0.25
        us_w, rate_w, snr_w = resolve_strategy("window", p, d, 3.0)
        us_r, rate_r, snr_r = resolve_strategy("rate", 1.0 / (1.0 + d * p), d, 3.0)
        assert rate_w == pytest.approx(rate_r, rel=1e-12)
        assert snr_w == pytest.approx(snr_r, rel=1e-12)
        assert us_w == pytest.approx(us_r, rel=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            resolve_strategy("power", 0.5, 1, 3.0)


class TestOptimizers:
    @pytest.mark.parametrize("runner", [optimize_rate, optimize_window, optimize_threshold])
    def test_rejects_an_empty_grid(self, runner):
        with pytest.raises(InvalidParameterError):
            runner(16, 1, LinkModel(1.0), points=0)

    def test_rate_minimum_dominates_endpoints(self):
        res = optimize_rate(1024, 1, LINK5, points=32)
        bers = [b for _, b in res.grid]
        assert res.min_ber <= bers[0] and res.min_ber <= bers[-1]
        assert res.unimodal and res.refined and not res.boundary

    def test_rate_dominates_random_feasible_points(self):
        res = optimize_rate(1024, 2, LINK5, points=32)
        rng = np.random.default_rng(7)
        lo, hi = 1 / 3, 1024 / 1026
        for rate in rng.uniform(lo + 1e-6, hi, size=11):
            p = min(1.0, (1 / rate - 1) / 2)
            snr_eff = LINK5.snr_per_symbol * rate
            us = equal_probability_thresholds(2, p, LinkModel(snr_eff))
            assert res.min_ber <= _ber_approx(snr_eff, us, DEFAULT_PRONY) + 1e-15

    def test_window_boundary_equals_repetition(self):
        res = optimize_window(1024, 2, LINK5, points=16)
        full = [b for x, b in res.grid if x == pytest.approx(1.0)]
        snr_eff = LINK5.snr_per_symbol / 3
        brc = float(q_function(math.sqrt(2 * 3 * snr_eff)))
        assert full[0] == pytest.approx(brc, rel=1e-9)

    def test_approx_and_exact_agree_at_minimum(self):
        for runner in (optimize_rate, optimize_window, optimize_threshold):
            res = runner(1024, 2, LINK5, points=24)
            assert abs(res.min_ber - res.min_ber_exact) / res.min_ber_exact < 0.15

    def test_threshold_result_reports_protocol(self):
        res = optimize_threshold(1024, 2, LINK5, points=24)
        assert len(res.windows) == 2
        assert 0 < res.forward_rate <= 1
        assert res.thresholds == (res.minimizer,) * 2

    def test_rate_and_window_sweeps_match(self):
        # the two strategies parameterize the same family
        r = optimize_rate(1024, 1, LINK5, points=48)
        w = optimize_window(1024, 1, LINK5, points=48)
        assert r.min_ber == pytest.approx(w.min_ber, rel=5e-3)
        assert r.minimizer == pytest.approx(1 / (1 + w.minimizer), rel=5e-3)


class TestTrends:
    @pytest.mark.parametrize("d", [1, 2])
    def test_proposition_trends(self, d):
        links = [LinkModel(10 ** (db / 10)) for db in (0.0, 2.5, 5.0, 7.5)]
        rates = [optimize_rate(1024, d, lk, points=32).minimizer for lk in links]
        windows = [optimize_window(1024, d, lk, points=32).minimizer for lk in links]
        thresholds = [optimize_threshold(1024, d, lk, points=32).minimizer for lk in links]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(a > b for a, b in zip(windows, windows[1:]))
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


class TestFixedThresholdRate:
    def test_slow_fixed_point_is_solved(self, recwarn):
        # the plain iteration from r = 1 crawls past a near-tangency here and
        # stopped at 0.76627 after 200 steps; the only root in (1/3, 1] is 0.48350
        d, u, base = 2, 3.4476, 10**1.00275
        rate, snr_eff = fixed_threshold_rate(d, u, base)
        fractions = _shared_threshold_fractions(d, u, base * rate)
        assert abs(rate - 1.0 / (1.0 + fractions.sum())) <= 1e-12
        assert rate == pytest.approx(0.48350, abs=1e-5)
        assert snr_eff == pytest.approx(base * rate, rel=1e-15)
        assert len(recwarn) == 0

    def test_largest_of_three_fixed_points(self, recwarn):
        # roots near 0.48, 0.761 and 0.781: the plain iteration from r = 1
        # creeps down onto 0.781 (200 steps leave a residual of 7.6e-6)
        d, u, base = 2, 3.44794419, 10**1.00293
        rate, _ = fixed_threshold_rate(d, u, base)
        fractions = _shared_threshold_fractions(d, u, base * rate)
        assert abs(rate - 1.0 / (1.0 + fractions.sum())) <= 1e-12
        assert rate == pytest.approx(0.78050, abs=1e-5)
        assert len(recwarn) == 0

    def test_array_matches_scalar(self):
        us = np.array([0.3, 1.2, 2.5, 4.0])
        rates, _ = fixed_threshold_rate(3, us, 3.0)
        for u, r in zip(us, rates):
            assert fixed_threshold_rate(3, float(u), 3.0)[0] == pytest.approx(r, abs=1e-12)

    def test_zero_threshold_retransmits_nothing(self):
        assert fixed_threshold_rate(2, 0.0, 3.0) == (1.0, 3.0)


def test_no_adaptive_quadrature_behind_the_design_path(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for d in (1, 2, 3):
        for runner in (optimize_rate, optimize_window, optimize_threshold):
            runner(256, d, LINK5, points=8)
    snr = LINK5.snr_per_symbol
    _ber_exact(snr, (0.5, 1.0, 1.5))
    cfg = ProtocolConfig(100, 2, thresholds=(0.5, 1.0))
    prob_retx_band(1, cfg, LINK5)
    prob_retx_band(2, cfg, LINK5)
    fixed_threshold_windows(1024, 3, 1.0, snr)
