import math

import numpy as np
import pytest
from scipy import integrate

from bitarq import (
    DEFAULT_PRONY,
    InvalidParameterError,
    LinkModel,
    NumericFailureError,
    ProtocolConfig,
    SlowChiSquareFading,
    appendix_integral,
    appendix_integral_quadrature,
    ber_approx,
    ber_exact,
    ber_fading,
    ber_fading_quadrature,
    prob_retx_band,
    q_function,
)
from bitarq.analytic import _band_prob, _ber_approx, _ber_exact, _prony_tail, _quad
from bitarq.model import MAX_SNR_DB

LINK1 = LinkModel(1.0)


def q(x: float) -> float:
    return float(q_function(x))


def prony(x: float) -> float:
    """The two-term exponential fit of Q(x) that DEFAULT_PRONY holds."""
    return sum(a * math.exp(-b * x * x) for a, b in DEFAULT_PRONY)


class TestQFunction:
    def test_symmetry_point(self):
        assert q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_uncoded_reference(self):
        assert q(math.sqrt(2)) == pytest.approx(0.5 * math.erfc(1.0), rel=1e-14)
        assert q(math.sqrt(2)) == pytest.approx(0.078650, abs=5e-7)

    def test_left_tail(self):
        assert q(-10.0) == pytest.approx(1.0, abs=1e-15)

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 2.0])
        assert q_function(xs).shape == (3,)


class TestPronyFit:
    def test_coefficients(self):
        assert DEFAULT_PRONY == ((0.208, 0.971), (0.147, 0.525))

    def test_origin_mismatch_is_deliberate(self):
        # the fit targets the tail, not the origin
        assert prony(0.0) == pytest.approx(0.355, abs=1e-12)

    def test_unit_point(self):
        expected = 0.208 * math.exp(-0.971) + 0.147 * math.exp(-0.525)
        got = prony(1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.16578, abs=1e-4)

    def test_tail_accuracy(self):
        assert prony(3.0) == pytest.approx(q(3.0), rel=0.02)


class TestSingleTransmission:
    # P(lo < |r0| <= hi) of a fresh sample at SNR 1 (mean sqrt(2))
    M1 = math.sqrt(2.0)

    def test_band_probability_limits(self):
        assert _band_prob(self.M1, 0.0, math.inf) == pytest.approx(1.0)
        assert _band_prob(self.M1, 0.0, 0.0) == 0.0

    def test_band_probability_value(self):
        expected = 0.5 - q(2 * math.sqrt(2))
        got = _band_prob(self.M1, 0.0, 2.0 / math.sqrt(2.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.49767, abs=1e-5)

    def test_partitioned_bands_sum_to_one(self):
        edges = [0.0, 0.4, 1.1, 2.0, math.inf]
        total = sum(_band_prob(self.M1, a, b) for a, b in zip(edges, edges[1:]))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBerExact:
    def test_degenerate_no_retransmission(self):
        cfg = ProtocolConfig(100, 1, thresholds=(0.0,))
        assert ber_exact(cfg, LINK1) == pytest.approx(q(math.sqrt(2)), rel=1e-12)

    def test_everything_retransmitted(self):
        cfg = ProtocolConfig(100, 1, thresholds=(20.0,))
        assert ber_exact(cfg, LINK1) == pytest.approx(q(2.0), rel=1e-9)

    def test_bracketed_by_repetition_and_uncoded(self):
        for d, us in [(1, (0.7,)), (2, (0.5, 1.1)), (3, (0.4, 0.8, 1.5))]:
            for snr in (0.7, 10**0.5):
                link = LinkModel(snr)
                cfg = ProtocolConfig(100, d, thresholds=us)
                val = ber_exact(cfg, link)
                m = math.sqrt(2 * snr)
                assert q(m * math.sqrt(d + 1)) - 1e-12 <= val <= q(m) + 1e-12

    def test_nonincreasing_in_thresholds(self):
        cfg_lo = ProtocolConfig(100, 2, thresholds=(0.5, 1.0))
        cfg_hi = ProtocolConfig(100, 2, thresholds=(0.8, 1.0))
        cfg_hi2 = ProtocolConfig(100, 2, thresholds=(0.5, 1.6))
        base = ber_exact(cfg_lo, LINK1)
        assert ber_exact(cfg_hi, LINK1) <= base + 1e-12
        assert ber_exact(cfg_hi2, LINK1) <= base + 1e-12

    def test_requires_thresholds(self):
        with pytest.raises(InvalidParameterError):
            ber_exact(ProtocolConfig(100, 1), LINK1)


class TestBerApprox:
    @pytest.mark.parametrize(
        "d,fracs", [(1, (0.3,)), (2, (0.3, 0.6)), (3, (0.2, 0.5, 0.8))]
    )
    @pytest.mark.parametrize("snr", [0.5, 1.0, 10**0.5, 10.0])
    def test_agrees_with_quadrature(self, d, fracs, snr):
        m = math.sqrt(2 * snr)
        us = tuple(f * m for f in fracs)
        exact = _ber_exact(snr, us)
        approx = _ber_approx(snr, us, DEFAULT_PRONY)
        if exact >= 1e-6:
            assert approx == pytest.approx(exact, rel=0.15)

    def test_equal_thresholds_cancel_middle_terms(self):
        snr = 2.0
        m = math.sqrt(2 * snr)
        u = 0.9
        got = _ber_approx(snr, (u, u), DEFAULT_PRONY)
        manual = q(m + u) + q(m * math.sqrt(3)) - _prony_tail(2, u, m, DEFAULT_PRONY)
        assert got == pytest.approx(manual, rel=1e-14)

    def test_equal_probability_ladder_gap_small(self):
        from bitarq.optimize import equal_probability_thresholds

        snr = 10**0.5
        us = equal_probability_thresholds(3, 0.25, LinkModel(snr))
        exact = _ber_exact(snr, us)
        approx = _ber_approx(snr, us, DEFAULT_PRONY)
        assert approx == pytest.approx(exact, rel=0.10)

    def test_infinite_threshold_reduces_to_repetition(self):
        cfg = ProtocolConfig(100, 2, thresholds=(math.inf, math.inf))
        m = math.sqrt(2.0)
        assert ber_approx(cfg, LINK1) == pytest.approx(q(m * math.sqrt(3)), rel=1e-12)


class TestProbRetxBand:
    def test_total_probability(self):
        cfg = ProtocolConfig(100, 1, thresholds=(math.inf,))
        assert prob_retx_band(1, cfg, LINK1) == pytest.approx(1.0, abs=1e-9)

    def test_band_index_range(self):
        cfg = ProtocolConfig(100, 2, thresholds=(0.5, 1.0))
        with pytest.raises(InvalidParameterError):
            prob_retx_band(0, cfg, LINK1)
        with pytest.raises(InvalidParameterError):
            prob_retx_band(3, cfg, LINK1)


class TestFading:
    @pytest.mark.parametrize(
        "d,rel", [(1, (0.4,)), (2, (0.3, 0.6)), (3, (0.2, 0.5, 0.9))]
    )
    @pytest.mark.parametrize("mean_snr", [1.0, 10.0])
    def test_closed_form_matches_average_of_closed_ber(self, d, rel, mean_snr):
        link = LinkModel(mean_snr, fading=SlowChiSquareFading(mean_snr))
        cfg = ProtocolConfig(100, d, thresholds=rel)
        a = ber_fading(cfg, link)
        b = ber_fading_quadrature(cfg, link, integrand="approx")
        assert a == pytest.approx(b, rel=1e-8)

    def test_zero_snr_limit_of_true_average(self):
        link = LinkModel(1e-4, fading=SlowChiSquareFading(1e-4))
        cfg = ProtocolConfig(100, 1, thresholds=(0.4,))
        val = ber_fading_quadrature(cfg, link, integrand="exact")
        assert val == pytest.approx(0.5, rel=0.02)

    def test_repetition_term_identity(self):
        # E[Q(sqrt(2(d+1)g))] over the exponential density has the closed
        # square-root form used by the second term
        for d in (1, 2):
            for mean_snr in (1.0, 10.0):
                def f(g):
                    return q(math.sqrt(2 * (d + 1) * g)) * math.exp(-g / mean_snr) / mean_snr

                numeric, _ = integrate.quad(f, 0, 60 * mean_snr, epsabs=1e-12, limit=300)
                closed = 0.5 * (1.0 - 1.0 / math.sqrt(1.0 + 1.0 / (mean_snr * (d + 1))))
                assert numeric == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("v", [1e200, math.inf])
    @pytest.mark.parametrize("mean_snr", [1.0, 10.0])
    def test_huge_threshold_is_full_repetition(self, d, v, mean_snr):
        # every bit is retransmitted d times: the fading average of Q(sqrt(2(d+1)g))
        cfg = ProtocolConfig(16, d, thresholds=(v,) * d)
        got = ber_fading(cfg, LinkModel(mean_snr, fading=SlowChiSquareFading(mean_snr)))
        full = 0.5 - 0.5 / math.sqrt(1.0 + 1.0 / (mean_snr * (d + 1)))
        assert got == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_positive_at_the_snr_ceiling(self, d):
        ceiling = 10.0 ** (MAX_SNR_DB / 10.0)
        cfg = ProtocolConfig(16, d, thresholds=(0.5,) * d)
        got = ber_fading(cfg, LinkModel(ceiling, fading=SlowChiSquareFading(ceiling)))
        assert 1e-11 < got < 2e-11

    def test_requires_fading_descriptor(self):
        cfg = ProtocolConfig(100, 1, thresholds=(0.4,))
        with pytest.raises(InvalidParameterError):
            ber_fading(cfg, LinkModel(1.0))


class TestQuadrature:
    def test_error_estimate_is_judged_relative_to_the_value(self):
        # small in absolute terms, yet quad cannot resolve the oscillation:
        # an absolute error test would pass a result that is about 50% off
        with pytest.raises(NumericFailureError):
            _quad(lambda x: 1e-9 * math.sin(1.0 / x) / x, 1e-6, 1.0)


class TestAppendixIntegrals:
    def test_linear_in_amplitude(self):
        h = (1.0, 1.0, 1.0, 1.0, 1.0)
        tiny = (1e-9, 1.0, 1.0, 1.0, 1.0)
        for kind, bound in [("semiinf_plus", None), ("finite_minus", 0.8)]:
            a = appendix_integral(kind, h, bound)
            b = appendix_integral(kind, tiny, bound)
            assert b == pytest.approx(1e-9 * a, rel=1e-12)
            assert b < 1e-9

    def test_mass_inside_range(self):
        h = (0.5, 0.4, 0.5, 1.0, 1.2)
        cf = appendix_integral("semiinf_minus", h)
        qd = appendix_integral_quadrature("semiinf_minus", h)
        assert cf == pytest.approx(qd, rel=0.05)

    def test_wide_finite_range_example(self):
        # the argument sign change at x = -h5 sits inside [-H, H] here, so
        # the printed form carries the fit's sign-blindness penalty
        h = (0.3, 1.0, 1.0, 1.0, 0.5)
        cf = appendix_integral("finite_plus", h, 3.0)
        qd = appendix_integral_quadrature("finite_plus", h, 3.0)
        assert cf == pytest.approx(qd, rel=0.08)

    @pytest.mark.parametrize("kind", ["semiinf_minus", "semiinf_plus", "finite_minus", "finite_plus"])
    @pytest.mark.parametrize("h", [(1, 1e200, 1, 1, 1), (1, 1, 1, 1, 1e200)])
    def test_far_centre_or_shift_gives_the_zero_limit(self, kind, h):
        # (h2 -+ h5)^2 exceeds the float range; the quadrature twin sees no mass
        assert appendix_integral(kind, h, 2.0) == appendix_integral_quadrature(kind, h, 2.0) == 0.0

    @pytest.mark.parametrize("twin", [appendix_integral, appendix_integral_quadrature])
    @pytest.mark.parametrize("h", [(1, math.inf, 1, 1, math.inf), (1, 1, 1, math.nan, 1)])
    def test_non_finite_h_is_rejected(self, twin, h):
        # the closed form returned nan here, its quadrature twin 0.0
        with pytest.raises(InvalidParameterError):
            twin("semiinf_minus", h)

    @pytest.mark.parametrize("kind,h", [
        *((kind, (1, 1, 1e300, 1, 1e300)) for kind in
          ("semiinf_minus", "semiinf_plus", "finite_minus", "finite_plus")),
        ("semiinf_minus", (1, 1, 1e300, 1e300, 1)),
        ("semiinf_minus", (1, 1, 1, 1e300, 1)),
    ])
    def test_huge_width_or_slope_gives_the_zero_limit(self, kind, h):
        # h3 * (1 + h3*c) and h3*c*h5 (c = 0.971 * h4^2) overflowed to
        # inf / inf = nan in the closed form
        assert appendix_integral(kind, h, 2.0) == appendix_integral_quadrature(kind, h, 2.0) == 0.0

    def test_huge_width_keeps_the_closed_form(self):
        # a Gaussian factor wider than any float range: the value stays that
        # of a merely wide one (sqrt(h3 * (1 + h3*c)) overflowed to inf here)
        wide = appendix_integral("semiinf_minus", (0.5, 0.5, 1e10, 0.5, 0.5))
        assert appendix_integral("semiinf_minus", (0.5, 0.5, 1e300, 0.5, 0.5)) == pytest.approx(
            wide, rel=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            appendix_integral("bogus", (1, 1, 1, 1, 1), 1.0)
        with pytest.raises(InvalidParameterError):
            appendix_integral("finite_plus", (1, 1, 1, 1, 1), None)
        with pytest.raises(InvalidParameterError):
            appendix_integral("semiinf_plus", (1, -1, 1, 1, 1))
