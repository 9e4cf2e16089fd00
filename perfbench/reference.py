"""Independent numerics the output checks compare bitarq against.

Nothing here imports bitarq.  Every quantity is written directly from its
probabilistic definition in the normalized sample space (a fresh bit
arrives as N(m, 1) with m = sqrt(2*snr); k retransmissions add k copies of
N(m, 1) to it) and integrated over the first-pass sample r0 with composite
Gauss-Legendre rules, so the checks do not share bitarq's quadrature,
closed forms or root finders.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

# Two-term exponential fit of Q(x) that bitarq's closed forms are built on;
# the approximate-BER reference integrates it numerically.
PRONY_A = (0.208, 0.147)
PRONY_B = (0.971, 0.525)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANEL = 1.0  # panel width in standard deviations of the integrand's envelope
_SPAN = 14.0  # envelope half-width; mass beyond it is below 1e-43


def q(x):
    """Gaussian tail probability Q(x)."""
    return ndtr(-np.asarray(x, dtype=float))


def prob_between(lo, hi):
    """P(lo < Z <= hi) for a standard normal Z, without upper-tail cancellation."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.where(lo > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def _nodes(a: float, b: float, scale: float):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    if not b > a:
        return np.empty(0), np.empty(0)
    panels = max(1, math.ceil((b - a) / (_PANEL * scale)))
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return x, w


def _first_pass_integral(m: float, lo: float, hi: float, g) -> float:
    """E[g(r0); lo < |r0| <= hi] for r0 ~ N(m, 1)."""
    total = 0.0
    for a, b in ((lo, hi), (-hi, -lo)):
        a = max(a, m - _SPAN)
        b = min(b, m + _SPAN)
        x, w = _nodes(a, b, 1.0)
        if x.size:
            pdf = np.exp(-0.5 * (x - m) ** 2) / math.sqrt(2.0 * math.pi)
            total += float(np.sum(w * pdf * g(x)))
    return total


def _ladder_bands(us):
    """(lo, hi, k): first-pass band and the retransmissions its bits get."""
    d = len(us)
    edges = (0.0,) + tuple(us) + (math.inf,)
    return [(edges[b], edges[b + 1], d - b) for b in range(d + 1)]


def ber_exact(snr: float, us) -> float:
    """BER of the preassigned scheme with threshold ladder ``us``."""
    m = math.sqrt(2.0 * snr)
    total = 0.0
    for lo, hi, k in _ladder_bands(us):
        if k == 0:
            total += float(q(m + lo))
            continue
        total += _first_pass_integral(
            m, lo, hi, lambda r, k=k: ndtr(-(r + k * m) / math.sqrt(k))
        )
    return total


def _prony_tail(d: int, u: float, m: float) -> float:
    """Integral over x <= 0 of the (d+1)-copy average's density times the
    tail fit evaluated at sqrt((d+1)/d) * (u -+ x)."""
    if math.isinf(u):
        return 0.0
    sigma = 1.0 / math.sqrt(d + 1)
    x, w = _nodes(m - _SPAN * sigma, 0.0, sigma)
    if not x.size:
        return 0.0
    pdf = np.exp(-0.5 * ((x - m) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    c = (d + 1) / d
    fit = sum(
        a * (np.exp(-b * c * (u - x) ** 2) + np.exp(-b * c * (u + x) ** 2))
        for a, b in zip(PRONY_A, PRONY_B)
    )
    return float(np.sum(w * pdf * fit))


def ber_approx(snr: float, us) -> float:
    """The closed-form BER approximation, integrated numerically.

    Same model as :func:`ber_exact` with the Q factor inside each combining
    integral replaced by the two-term exponential fit.
    """
    m = math.sqrt(2.0 * snr)
    d = len(us)
    total = float(q(m + us[-1]) + q(m * math.sqrt(d + 1))) - _prony_tail(d, us[0], m)
    for i in range(1, d):
        total += _prony_tail(i, us[d - i - 1], m) - _prony_tail(i, us[d - i], m)
    return total


def _combined_below(i: int, m: float, h: float):
    """r0 -> P(|average of r0 and i further copies| <= h | r0)."""
    s = math.sqrt(i)
    return lambda r: prob_between((-(i + 1) * h - r - i * m) / s, ((i + 1) * h - r - i * m) / s)


def retx_fraction(j: int, snr: float, us) -> float:
    """Expected fraction of a packet retransmitted in round j+1.

    ``us`` holds U_0..U_j.  A bit counts when its first sample lies in
    (U_{j-1}, U_j], or when it lies in a lower band, was retransmitted i
    times so far, and its (i+1)-copy average is still within U_j.
    """
    m = math.sqrt(2.0 * snr)
    h = us[j]
    total = float(prob_between(us[j - 1] - m, h - m) + prob_between(us[j - 1] + m, h + m))
    for i in range(1, j + 1):
        lo = 0.0 if i == j else us[j - i - 1]
        total += _first_pass_integral(m, lo, us[j - i], _combined_below(i, m, h))
    return total


def _solve_increasing(f, lo: float, hi: float) -> float:
    if f(lo) >= 0.0:
        return lo
    while f(hi) < 0.0:
        hi = lo + 2.0 * (hi - lo)
    return brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)


def equal_probability_ladder(d: int, p: float, snr: float) -> tuple[float, ...]:
    """Thresholds U_0..U_{d-1} making every round retransmit fraction p."""
    if p >= 1.0 - 1e-12:
        return (math.inf,) * d
    m = math.sqrt(2.0 * snr)
    us = [_solve_increasing(lambda u: float(prob_between(-u - m, u - m)) - p, 0.0, m + 4.0)]
    for j in range(1, d):
        prefix = tuple(us)
        us.append(
            _solve_increasing(
                lambda u: retx_fraction(j, snr, prefix + (u,)) - p, us[-1], us[-1] + m + 4.0
            )
        )
    return tuple(us)


def shared_threshold_fractions(d: int, u: float, snr: float) -> list[float]:
    """Round fractions P(|r0| <= u and the i+1 copy average within u), i = 1..d."""
    m = math.sqrt(2.0 * snr)
    return [_first_pass_integral(m, 0.0, u, _combined_below(i, m, u)) for i in range(1, d + 1)]


def shared_threshold_rate(d: int, u: float, base_snr: float) -> float:
    """Forward rate under one shared threshold: the fixed point of
    rate = 1 / (1 + sum of round fractions at snr = base_snr * rate),
    approached from rate = 1 as the plain iteration does."""

    def step(rate):
        return 1.0 / (1.0 + sum(shared_threshold_fractions(d, u, base_snr * rate)))

    rate = 1.0
    for _ in range(100):
        new = step(rate)
        if abs(new - rate) < 1e-13:
            return new
        rate = new
    # Slow convergence: the iterates fall monotonically onto the fixed
    # point, so it lies just below the last one; bracket it and solve.
    delta = max(rate - step(rate), 1e-12)
    while rate - delta - step(rate - delta) > 0.0:
        delta *= 2.0
    return brentq(lambda r: r - step(r), rate - delta, rate, xtol=1e-15, rtol=1e-15)


def expected_idle(n: int, w: int, c1: int) -> tuple[float, float]:
    """Mean and variance of floor(K / 2**c1) for K ~ Geometric(1 / C(n, w))."""
    log_q = math.log1p(-1.0 / math.comb(n, w))
    m = 1 << c1
    mean = second = 0.0
    j = 1
    while True:
        tail = math.exp((j * m - 1) * log_q)  # P(floor(K / m) >= j)
        mean += tail
        second += (2 * j - 1) * tail
        if tail < 1e-18:
            return mean, second - mean * mean
        j += 1
