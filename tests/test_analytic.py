import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from bitarq import (
    DEFAULT_PRONY,
    BitarqError,
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
    q_function,
)
from bitarq.analytic import (
    _GL_W,
    _GL_X,
    _U_CAP,
    _gauss_exp_tail_mean,
    _prony_ber,
    _prony_tail,
    _quad,
    retx_rung,
    shared_threshold_fractions,
)
from bitarq.model import MAX_SNR_DB
from bitarq.optimize import equal_probability_thresholds

LINK1 = LinkModel(1.0)
FADING_LADDERS = {1: (0.4,), 2: (0.3, 0.6), 3: (0.2, 0.5, 0.9)}


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
    # P(|r0| <= u) of a fresh sample at SNR 1 (mean sqrt(2)): the first rung
    @staticmethod
    def fresh(u):
        return retx_rung(1.0, ())(u)[0]

    def test_band_probability_limits(self):
        assert self.fresh(math.inf) == pytest.approx(1.0)
        assert self.fresh(0.0) == 0.0

    def test_band_probability_value(self):
        expected = 0.5 - q(2 * math.sqrt(2))
        got = self.fresh(2.0 / math.sqrt(2.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.49767, abs=1e-5)

    def test_partitioned_bands_sum_to_one(self):
        edges = [0.0, 0.4, 1.1, 2.0, math.inf]
        total = sum(self.fresh(b) - self.fresh(a) for a, b in zip(edges, edges[1:]))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBerExact:
    def test_degenerate_no_retransmission(self):
        cfg = ProtocolConfig(100, 1, thresholds=(0.0,))
        assert ber_exact(LINK1.snr_per_symbol, cfg.thresholds) == pytest.approx(q(math.sqrt(2)), rel=1e-12)

    def test_everything_retransmitted(self):
        cfg = ProtocolConfig(100, 1, thresholds=(20.0,))
        assert ber_exact(LINK1.snr_per_symbol, cfg.thresholds) == pytest.approx(q(2.0), rel=1e-9)

    def test_bracketed_by_repetition_and_uncoded(self):
        for d, us in [(1, (0.7,)), (2, (0.5, 1.1)), (3, (0.4, 0.8, 1.5))]:
            for snr in (0.7, 10**0.5):
                link = LinkModel(snr)
                cfg = ProtocolConfig(100, d, thresholds=us)
                val = ber_exact(link.snr_per_symbol, cfg.thresholds)
                m = math.sqrt(2 * snr)
                assert q(m * math.sqrt(d + 1)) - 1e-12 <= val <= q(m) + 1e-12

    def test_nonincreasing_in_thresholds(self):
        snr = LINK1.snr_per_symbol
        base = ber_exact(snr, (0.5, 1.0))
        assert ber_exact(snr, (0.8, 1.0)) <= base + 1e-12
        assert ber_exact(snr, (0.5, 1.6)) <= base + 1e-12

    def test_requires_thresholds(self):
        # an empty ladder: both evaluators raised IndexError
        for evaluator in (ber_exact, ber_approx):
            with pytest.raises(InvalidParameterError):
                evaluator(LINK1.snr_per_symbol, ())


class TestBerApprox:
    @pytest.mark.parametrize(
        "d,fracs", [(1, (0.3,)), (2, (0.3, 0.6)), (3, (0.2, 0.5, 0.8))]
    )
    @pytest.mark.parametrize("snr", [0.5, 1.0, 10**0.5, 10.0])
    def test_agrees_with_quadrature(self, d, fracs, snr):
        m = math.sqrt(2 * snr)
        us = tuple(f * m for f in fracs)
        exact = ber_exact(snr, us)
        approx = ber_approx(snr, us, DEFAULT_PRONY)
        if exact >= 1e-6:
            assert approx == pytest.approx(exact, rel=0.15)

    def test_equal_thresholds_cancel_middle_terms(self):
        snr = 2.0
        m = math.sqrt(2 * snr)
        u = 0.9
        got = ber_approx(snr, (u, u), DEFAULT_PRONY)
        manual = q(m + u) + q(m * math.sqrt(3)) - _prony_tail(2, u, m, DEFAULT_PRONY)
        assert got == pytest.approx(manual, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_tails_in_one_call_equal_the_per_tail_loop(self, d):
        # the reference values each tail in its own call and sums them in the
        # order the closed form adds them
        snr = np.array([0.5, 1.0, 10**0.5, 10.0])[:, None]
        us = np.sort(np.random.default_rng(d).uniform(0.0, 5.0, (d, 8)), axis=0)
        us[:, 0] = math.inf
        m, u = np.sqrt(2.0 * snr), np.minimum(us, _U_CAP)
        want = q_function(m + u[-1]) + q_function(m * math.sqrt(d + 1))
        want = want - _prony_tail(d, u[0], m, DEFAULT_PRONY)
        for i in range(1, d):
            want = want + _prony_tail(i, u[d - i - 1], m, DEFAULT_PRONY)
            want = want - _prony_tail(i, u[d - i], m, DEFAULT_PRONY)
        assert np.array_equal(_prony_ber(snr, tuple(us)), want)

    def test_equal_probability_ladder_gap_small(self):
        snr = 10**0.5
        us = equal_probability_thresholds(3, 0.25, LinkModel(snr))
        exact = ber_exact(snr, us)
        approx = ber_approx(snr, us, DEFAULT_PRONY)
        assert approx == pytest.approx(exact, rel=0.10)

    def test_infinite_threshold_reduces_to_repetition(self):
        cfg = ProtocolConfig(100, 2, thresholds=(math.inf, math.inf))
        m = math.sqrt(2.0)
        got = ber_approx(LINK1.snr_per_symbol, cfg.thresholds)
        assert got == pytest.approx(q(m * math.sqrt(3)), rel=1e-12)


class TestProbRetxBand:
    def test_total_probability(self):
        # under infinite thresholds every bit is retransmitted
        fraction = retx_rung(LINK1.snr_per_symbol, (math.inf,))
        assert fraction(math.inf)[0] == pytest.approx(1.0, abs=1e-9)


class TestEvaluatorInput:
    """The four public evaluators check the SNR and the ladder once, up front."""

    BAD_LADDERS = {
        "negative": (-1.0,),
        "nan": (math.nan,),
        "decreasing": (1.0, 0.5),
        "one negative element": (np.array([0.5, -0.1, 1.0]),),
        "one decreasing element": (np.array([0.5, 1.0]), np.array([1.0, 0.8])),
    }
    BAD_SNRS = {
        "zero": 0.0,
        "negative": -1.0,
        "nan": math.nan,
        "above 100 dB": 1e11,
        "one zero element": np.array([1.0, 0.0, 2.0]),
        "one element above 100 dB": np.array([1.0, 1e11]),
    }
    BY_SNR = {
        "ber_exact": lambda snr: ber_exact(snr, (0.5, 1.0)),
        "ber_approx": lambda snr: ber_approx(snr, (0.5, 1.0)),
        "retx_rung": lambda snr: retx_rung(snr, (0.5,)),
        "shared_threshold_fractions": lambda snr: shared_threshold_fractions(2, 0.5, snr),
    }

    @pytest.mark.parametrize("evaluator", [ber_exact, ber_approx, retx_rung])
    @pytest.mark.parametrize("ladder", BAD_LADDERS.values(), ids=BAD_LADDERS)
    def test_bad_ladder(self, evaluator, ladder):
        with pytest.raises(InvalidParameterError):
            evaluator(3.0, ladder)

    @pytest.mark.parametrize("evaluator", [ber_exact, ber_approx, retx_rung])
    def test_bare_number_ladder(self, evaluator):
        with pytest.raises(InvalidParameterError, match="must be a sequence"):
            evaluator(3.0, 0.5)

    def test_long_ladder(self):
        # more thresholds than np.broadcast takes operands (32 on NumPy 1.x, 64 on 2.x)
        us = tuple(np.linspace(0.1, 4.0, 70))
        assert 0.0 < ber_exact(3.0, us) < ber_exact(3.0, us[:40]) < q_function(math.sqrt(6.0))

    @pytest.mark.parametrize("prefix, u", [
        ((0.5,), 0.2),  # below the last threshold of the prefix: -0.0155 before the check
        ((), -1.0),  # below 0 with no prefix: -0.0733
        ((0.5,), math.nan),
        ((), np.array([0.5, -0.1])),
    ])
    def test_rung_rejects_a_top_threshold_below_its_prefix(self, prefix, u):
        fraction = retx_rung(3.0, prefix)
        with pytest.raises(InvalidParameterError):
            fraction(u)

    def test_rung_accepts_a_top_threshold_equal_to_its_prefix(self):
        assert retx_rung(3.0, (0.5,))(0.5)[0] > 0.0  # bits below 0.5 after round 1
        assert retx_rung(3.0, ())(0.0)[0] == 0.0

    @pytest.mark.parametrize("u", [-1.0, math.nan, np.array([0.5, -0.1, 1.0])])
    def test_bad_shared_threshold(self, u):
        with pytest.raises(InvalidParameterError):
            shared_threshold_fractions(2, u, 3.0)

    @pytest.mark.parametrize("evaluator", BY_SNR.values(), ids=BY_SNR)
    @pytest.mark.parametrize("snr", BAD_SNRS.values(), ids=BAD_SNRS)
    def test_bad_snr(self, evaluator, snr):
        with pytest.raises(InvalidParameterError):
            evaluator(snr)

    @pytest.mark.parametrize("snr", BAD_SNRS.values(), ids=BAD_SNRS)
    def test_bad_snr_message(self, snr):
        with pytest.raises(InvalidParameterError) as error:
            ber_exact(snr, (0.5, 1.0))
        assert str(error.value) == f"snr must be positive and at most {MAX_SNR_DB:g} dB"

    @pytest.mark.parametrize("d", [1.5, 0, True])
    def test_bad_round_count(self, d):
        with pytest.raises(InvalidParameterError):
            shared_threshold_fractions(d, 0.5, 3.0)

    def test_an_all_infinite_ladder_is_valid(self):
        # the equal-probability ladder at p = 1 retransmits every bit in every round
        us = equal_probability_thresholds(2, 1.0, LinkModel(3.0))
        assert us == (math.inf, math.inf)
        full = q(math.sqrt(6.0) * math.sqrt(3.0))
        assert ber_exact(3.0, us) == pytest.approx(full, rel=1e-9)
        assert ber_approx(3.0, us) == pytest.approx(full, rel=1e-12)
        assert retx_rung(3.0, us[:1])(math.inf)[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(shared_threshold_fractions(2, math.inf, 3.0) == pytest.approx(1.0, abs=1e-9))


# sha256 of every rectangle-kernel output below, recorded before the BER, the
# rungs and the shared-threshold fractions came to share one kernel
KERNEL_DIGEST = "fe5e61c3d85e0078ff455d5c0322ce5818796c5f2583fff9761d35ed5e2982cb"


def test_rectangle_kernels_are_bit_identical_to_the_pin():
    h = hashlib.sha256()
    for k, shape in enumerate([(), (7,), (3, 5)]):
        rng = np.random.default_rng(2017 + k)
        snr = 10.0 ** rng.uniform(-0.5, 1.5, shape)
        ladder = np.sort(rng.uniform(0.0, 4.0, shape + (5,)), axis=-1)
        if shape:  # one element's top rungs infinite
            ladder[(0,) * len(shape)][3:] = math.inf
        us = tuple(ladder[..., j] for j in range(5))
        out = [ber_exact(snr, us[:d]) for d in range(1, 5)]
        for j in range(5):
            out += retx_rung(snr, us[:j])(us[j])  # (value, slope)
        out += [shared_threshold_fractions(d, us[2], snr) for d in range(1, 4)]
        for x in out:
            assert np.all(np.isfinite(x))
            h.update(np.asarray(x, dtype=float).tobytes())
    assert h.hexdigest() == KERNEL_DIGEST


class TestFading:
    @pytest.mark.parametrize("d,rel", FADING_LADDERS.items())
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
        # E[Q(sqrt(2(d+1)g))] over the exponential density has a closed
        # square-root form, which the kernel gives at theta = 0
        for d in (1, 2):
            for mean_snr in (1.0, 10.0):
                def f(g):
                    return q(math.sqrt(2 * (d + 1) * g)) * math.exp(-g / mean_snr) / mean_snr

                numeric, _ = integrate.quad(f, 0, 60 * mean_snr, epsabs=1e-12, limit=300)
                closed = 0.5 * (1.0 - 1.0 / math.sqrt(1.0 + 1.0 / (mean_snr * (d + 1))))
                assert numeric == pytest.approx(closed, rel=1e-9)
                kernel = _gauss_exp_tail_mean(0.0, math.sqrt(2.0 * (d + 1)), mean_snr)
                assert kernel == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("theta, alpha", [(0.3, 1.2), (0.3, -0.7), (2.0, 0.0)])
    def test_kernel_matches_the_numeric_mean(self, theta, alpha):
        # E[exp(-theta g) Q(alpha sqrt(g))]; a negative alpha is the complement of a positive one
        mean_snr = 3.0

        def f(g):
            return math.exp(-theta * g) * q(alpha * math.sqrt(g)) * math.exp(-g / mean_snr) / mean_snr

        numeric, _ = integrate.quad(f, 0, 60 * mean_snr, epsabs=1e-14, limit=300)
        assert _gauss_exp_tail_mean(theta, alpha, mean_snr) == pytest.approx(numeric, rel=1e-9)

    @pytest.mark.parametrize("mean_snr, ladder", [
        *(pytest.param(10.0 ** (db / 10.0), FADING_LADDERS[d], id=f"{db}-{d}")
          for db in (-10, 0, 20, 40, 60, 80, 100) for d in (1, 2, 3)),
        # quad flagged subdivision on the closed-form integrand in g here
        *(pytest.param(g, (0.3, 45.0), id=f"{g:g}-0.3-45") for g in (30.0, 100.0, 1000.0)),
    ])
    def test_oracle_covers_every_accepted_mean_snr(self, mean_snr, ladder):
        # the oracle integrated over [1e-12, 50 * mean SNR], while the mass lies
        # below g = 50: it raised at 30 dB and returned 0.0 from 40 dB up
        link = LinkModel(mean_snr, fading=SlowChiSquareFading(mean_snr))
        cfg = ProtocolConfig(16, len(ladder), thresholds=ladder)
        values = {i: ber_fading_quadrature(cfg, link, integrand=i) for i in ("approx", "exact")}
        assert all(0.0 < v < math.inf for v in values.values()), values
        assert values["approx"] == pytest.approx(ber_fading(cfg, link), rel=1e-9)

    def test_oracle_keeps_the_density_mass_below_its_lower_bound(self):
        # the lower bound was 1e-12 at any mean SNR: at 1e-13 it cut away all
        # but e^-10 of the density, 2.3e-5 for a BER of 0.5; in s = sqrt(g / mean SNR)
        # the oracle now integrates from 0
        link = LinkModel(1.0, fading=SlowChiSquareFading(1e-13))
        cfg = ProtocolConfig(16, 1, thresholds=(0.4,))
        assert ber_fading_quadrature(cfg, link, integrand="exact") == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("v", [1e200, math.inf])
    @pytest.mark.parametrize("mean_snr", [1.0, 10.0, 1e10])
    def test_huge_threshold_is_full_repetition(self, d, v, mean_snr):
        # every bit is retransmitted d times: the fading average of Q(sqrt(2(d+1)g)),
        # 0.5 - 0.5/sqrt(1 + x) with x = 1/(g(d+1)), written without the cancellation
        cfg = ProtocolConfig(16, d, thresholds=(v,) * d)
        got = ber_fading(cfg, LinkModel(mean_snr, fading=SlowChiSquareFading(mean_snr)))
        x = 1.0 / (mean_snr * (d + 1))
        full = 0.5 * x / (math.sqrt(1.0 + x) * (1.0 + math.sqrt(1.0 + x)))
        assert got == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_positive_at_the_snr_ceiling(self, d):
        ceiling = 10.0 ** (MAX_SNR_DB / 10.0)
        cfg = ProtocolConfig(16, d, thresholds=(0.5,) * d)
        got = ber_fading(cfg, LinkModel(ceiling, fading=SlowChiSquareFading(ceiling)))
        assert 1e-11 < got < 2e-11

    @pytest.mark.parametrize("integrand", ["approx", "exact"])
    @pytest.mark.parametrize("mean_snr", [5e-324, 1e-309])
    def test_oracle_fails_typed_at_a_subnormal_mean_snr(self, integrand, mean_snr):
        # g = mean_snr * s^2 underflows to 0; ber_fading keeps its value there
        link = LinkModel(1.0, fading=SlowChiSquareFading(mean_snr))
        with pytest.raises(NumericFailureError):
            ber_fading_quadrature(ProtocolConfig(16, 1, thresholds=(0.4,)), link, integrand=integrand)

    def test_requires_fading_descriptor(self):
        cfg = ProtocolConfig(100, 1, thresholds=(0.4,))
        with pytest.raises(InvalidParameterError):
            ber_fading(cfg, LinkModel(1.0))

    @pytest.mark.parametrize("evaluator", [ber_fading, ber_fading_quadrature])
    @pytest.mark.parametrize("cfg, message", [
        (ProtocolConfig(16, 0), "need at least one retransmission"),
        (ProtocolConfig(16, 1), "config.thresholds must be set"),
    ], ids=["no-retransmission", "no-thresholds"])
    def test_requires_a_threshold_ladder(self, evaluator, cfg, message):
        link = LinkModel(1.0, fading=SlowChiSquareFading(3.0))
        with pytest.raises(InvalidParameterError, match=message):
            evaluator(cfg, link)

    def test_oracle_rejects_an_unknown_integrand(self):
        cfg = ProtocolConfig(16, 1, thresholds=(0.4,))
        link = LinkModel(1.0, fading=SlowChiSquareFading(3.0))
        with pytest.raises(InvalidParameterError, match="unknown integrand 'mc'"):
            ber_fading_quadrature(cfg, link, integrand="mc")


class TestQuadrature:
    def test_error_estimate_is_judged_relative_to_the_value(self):
        # small in absolute terms, yet quad cannot resolve the oscillation:
        # an absolute error test would pass a result that is about 50% off
        with pytest.raises(NumericFailureError):
            _quad(lambda x: 1e-9 * math.sin(1.0 / x) / x, 1e-6, 1.0)

    def test_an_infinite_value_is_a_failure(self):
        # abserr > 1e-6 * abs(value) is False for an infinite value, so inf was returned
        h = (7.912117890603252e+299, 1.0, 2.3249043457027254e+32, 1.0, 1.0)
        with pytest.raises(NumericFailureError):
            appendix_integral_quadrature("finite_minus", h, 227207538.0)


def _finite_non_negative_or_typed(call):
    try:
        value = call()
    except BitarqError:
        return
    assert isinstance(value, float) and 0.0 <= value < math.inf, value


@settings(max_examples=25, deadline=None)
@given(
    ladder=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3).map(sorted),
    db=st.floats(-3000.0, 100.0),
    integrand=st.sampled_from(["approx", "exact"]),
)
def test_fading_oracle_returns_a_value_or_a_typed_error(ladder, db, integrand):
    mean_snr = 10.0 ** (db / 10.0)
    link = LinkModel(1.0, fading=SlowChiSquareFading(mean_snr))
    cfg = ProtocolConfig(16, len(ladder), thresholds=ladder)
    _finite_non_negative_or_typed(lambda: ber_fading_quadrature(cfg, link, integrand=integrand))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["semiinf_minus", "semiinf_plus", "finite_minus", "finite_plus"]),
    h=st.lists(st.floats(1e-300, 1e300), min_size=5, max_size=5),
    bound=st.floats(1e-300, 1e300),
)
def test_appendix_oracle_returns_a_value_or_a_typed_error(kind, h, bound):
    _finite_non_negative_or_typed(lambda: appendix_integral_quadrature(kind, h, bound))


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

    @pytest.mark.parametrize("h3", [1e8, 1e10])
    def test_wide_gaussian_keeps_the_mass_near_zero(self, h3):
        # the +-12 sigma window alone was so wide that quad returned 0.0
        mp = pytest.importorskip("mpmath")
        h1, h2, h4, h5 = 0.5, 0.5, 0.5, 0.5
        with mp.workdps(30):
            exact = mp.quad(
                lambda x: h1 * mp.exp(-((x - h2) ** 2) / h3) * mp.erfc(h4 * (h5 - x) / mp.sqrt(2)) / 2,
                [-mp.inf, -200, -40, -10, 0],
            )
        got = appendix_integral_quadrature("semiinf_minus", (h1, h2, h3, h4, h5))
        assert got == pytest.approx(float(exact), rel=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            appendix_integral("bogus", (1, 1, 1, 1, 1), 1.0)
        with pytest.raises(InvalidParameterError):
            appendix_integral("finite_plus", (1, 1, 1, 1, 1), None)
        with pytest.raises(InvalidParameterError):
            appendix_integral("semiinf_plus", (1, -1, 1, 1, 1))


def test_gauss_legendre_literals_are_leggauss_to_the_bit():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert (_GL_X.tobytes(), _GL_W.tobytes()) == (nodes.tobytes(), weights.tobytes())
