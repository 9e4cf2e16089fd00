"""40-digit mpmath oracles for the exact BER and the retransmission-band
probabilities, deep tails included, and for the slow-fading closed form.

Each term is the rectangle probability P(lo < r0 <= hi, c < r0 + S <= e)
of the first-pass sample r0 ~ N(m, 1) and the sum S ~ N(i m, i) of i later
copies, integrated over r0 in 40-digit arithmetic with a composite
24-node Gauss-Legendre rule on 2-unit panels over [-(m + 16), m + 16],
which holds every term's mass wherever its peak lies.
"""

import pytest

from bitarq import DEFAULT_PRONY, LinkModel, ProtocolConfig, SlowChiSquareFading, ber_fading
from bitarq.analytic import ber_exact, retx_rung
from bitarq.optimize import equal_probability_thresholds

mp = pytest.importorskip("mpmath")

REL = 1e-9
PROBABILITIES = (0.05, 0.3, 0.7)


def _rule():
    with mp.workdps(40):
        return mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)


RULE = _rule()


def _between(lo, hi):
    if lo > 0:
        return mp.ncdf(-lo) - mp.ncdf(-hi)
    return mp.ncdf(hi) - mp.ncdf(lo)


def _rect(lo, hi, c, e, m, i):
    s = mp.sqrt(i)
    span = m + 16
    lo, hi = max(mp.mpf(lo), -span), min(mp.mpf(hi), span)
    if not hi > lo:
        return mp.mpf(0)
    panels = int(mp.ceil((hi - lo) / 2))
    half = (hi - lo) / (2 * panels)
    total = mp.mpf(0)
    for k in range(panels):
        mid = lo + (2 * k + 1) * half
        for x, w in RULE:
            r = mid + half * x
            total += w * mp.npdf(r - m) * _between((c - r - i * m) / s, (e - r - i * m) / s)
    return total * half


def _bands(us):
    """(lo, hi, retransmissions) of the signed first-pass bands of a ladder."""
    d = len(us)
    out = [(-us[0], us[0], d)]
    for b in range(1, d):
        out += [(us[b - 1], us[b], d - b), (-us[b], -us[b - 1], d - b)]
    return out


def oracle_ber(snr, us):
    with mp.workdps(40):
        m = mp.sqrt(2 * mp.mpf(snr))
        total = mp.ncdf(-(m + us[-1]))
        total += sum(_rect(lo, hi, -mp.inf, 0, m, k) for lo, hi, k in _bands(us))
        return total


def oracle_retx(d, snr, us):
    """Fraction retransmitted in round d+1; ``us`` holds U_0..U_d."""
    with mp.workdps(40):
        m = mp.sqrt(2 * mp.mpf(snr))
        h, lo = mp.mpf(us[d]), mp.mpf(us[d - 1])
        total = _between(lo - m, h - m) + _between(lo + m, h + m)
        total += sum(_rect(a, b, -(k + 1) * h, (k + 1) * h, m, k) for a, b, k in _bands(us[:d]))
        return total


def _rel(got, want):
    return float(abs(mp.mpf(got) - want) / want)


@pytest.mark.parametrize("db", [-5, 0, 5, 10, 15])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_exact_ber_and_band_probabilities_match_oracle(d, db):
    snr = 10.0 ** (db / 10.0)
    link = LinkModel(snr)
    for p in PROBABILITIES:
        us = equal_probability_thresholds(d, p, link)
        assert _rel(ber_exact(snr, us), oracle_ber(snr, us)) <= REL, (d, db, p)
        for j in range(1, d + 1):
            ladder = tuple(us[:j]) + (us[j] if j < d else us[-1],)
            want = oracle_retx(j, snr, ladder)
            assert _rel(retx_rung(snr, ladder[:j])(ladder[j])[0], want) <= REL, (d, db, p, j)


def test_deep_tail_values_the_envelope_clip_dropped():
    # adaptive quadrature on a +-12 sigma envelope returned 1.4758610751e-28
    # here (relative error 9.3e-5) and 2.4e-55 at d=2, 15 dB (BER 1.8e-43)
    snr = 10.0 ** 1.2
    us = equal_probability_thresholds(3, 0.3, LinkModel(snr))
    want = oracle_ber(snr, us)
    assert float(want) == pytest.approx(1.476e-28, rel=1e-3)
    assert _rel(ber_exact(snr, us), want) <= REL


def _exp_mean(theta, alpha, mean_snr):
    """E[exp(-theta g) Q(alpha sqrt(g))] for g exponential with mean ``mean_snr``."""
    s = 1 / mean_snr + theta
    return (1 - (alpha / mp.sqrt(2)) / mp.sqrt(s + alpha**2 / 2)) / (2 * mean_snr * s)


def oracle_fading(us, mean_snr):
    """The closed form of ber_fading in 40 digits: the fit's Q(m + U_{D-1}),
    Q(m sqrt(D+1)) and tails, each averaged over the exponential density."""
    with mp.workdps(40):
        g, us, big_d = mp.mpf(mean_snr), [mp.mpf(v) for v in us], len(us)
        total = _exp_mean(0, mp.sqrt(2) * (1 + us[-1]), g) + _exp_mean(0, mp.sqrt(2 * (big_d + 1)), g)
        tails = [(-1, big_d, us[0])]
        for i in range(1, big_d):
            tails += [(1, i, us[big_d - i - 1]), (-1, i, us[big_d - i])]
        for sign, d, v in tails:
            for a, b in DEFAULT_PRONY:
                s2 = 1 + 2 * mp.mpf(b) / d
                for w in (v, -v):
                    theta = 2 * b * (d + 1) * (1 - w) ** 2 / (d * s2)
                    alpha = mp.sqrt(2 * (d + 1)) * (1 + 2 * b * w / d) / mp.sqrt(s2)
                    total += sign * a / mp.sqrt(s2) * _exp_mean(theta, alpha, g)
        return total


@pytest.mark.parametrize("db", [-10, 0, 20, 40, 60, 80, 100])
@pytest.mark.parametrize("d, ladder", [(1, (0.4,)), (2, (0.3, 0.6)), (3, (0.2, 0.5, 0.9))])
def test_fading_closed_form_matches_oracle(d, ladder, db):
    # the leading terms were 1 - 0.5/sqrt(...) - 0.5/sqrt(...), which cancels
    # at high SNR: 6.0e-10 off at 60 dB, 7.2e-6 at 100 dB
    mean_snr = 10.0 ** (db / 10.0)
    got = ber_fading(ProtocolConfig(16, d, thresholds=ladder), LinkModel(1.0, fading=SlowChiSquareFading(mean_snr)))
    assert _rel(got, oracle_fading(ladder, mean_snr)) <= 1e-14


@pytest.mark.parametrize("mean_snr", [5e-324, 1e-309, 1e-300])
@pytest.mark.parametrize("d, ladder", [(1, (0.4,)), (2, (0.3, 0.6)), (3, (0.2, 0.5, 0.9))])
def test_fading_closed_form_at_a_subnormal_mean_snr(d, ladder, mean_snr):
    # 1/mean_snr overflowed to inf in the kernel, so ber_fading returned 0.0 below 2.2e-308
    got = ber_fading(ProtocolConfig(16, d, thresholds=ladder), LinkModel(1.0, fading=SlowChiSquareFading(mean_snr)))
    assert _rel(got, oracle_fading(ladder, mean_snr)) <= 1e-14
