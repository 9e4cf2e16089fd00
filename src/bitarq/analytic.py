"""Closed-form BER engine for bitwise selective retransmission.

Everything is evaluated in the normalized sample space: a fresh bit arrives
as ``N(m, 1)`` with ``m = sqrt(2*snr)``, and after ``d`` retransmissions the
MRC average of the ``d+1`` copies is ``N(m, 1/(d+1))``.  Reliability
thresholds live in the same space (see :mod:`bitarq.model`).

Two evaluation routes are provided for the BERs: the exact evaluator and
closed forms built on a two-term exponential fit of the Gaussian tail
probability.  The exact BER and the retransmission-band probabilities are
sums of bivariate-normal rectangle probabilities (the first-pass sample and
the MRC sum of later copies are jointly Gaussian), each evaluated as a
positive integral over the first-pass sample with one fixed Gauss-Legendre
rule: no adaptive loop, no cancellation in the tails.  Every evaluator
behind the optimizers accepts NumPy arrays and broadcasts over them, so a
sweep grid is scored in a few array calls, and each element equals the
scalar call bit for bit.  Squares are therefore taken with ``np.square``:
``** 2`` on a NumPy scalar calls pow(), which differs from the x*x of an
array in the last bit about once in a thousand.  Adaptive quadrature
survives only in the oracle twins ``ber_fading_quadrature`` and
``appendix_integral_quadrature``.

The analysis assumes the uniform simplification of one window size and one
feedback length shared by all rounds; the protocol types themselves also
carry per-round values.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np
from scipy.special import erfc as _np_erfc
from scipy.special import ndtr

from .errors import InvalidParameterError, NumericFailureError
from .model import (LinkModel, ProtocolConfig, check_fit, check_integer, check_items, check_real, check_snr,
                    check_type)

__all__ = [
    "check_reals",
    "q_function",
    "DEFAULT_PRONY",
    "ber_exact",
    "ber_approx",
    "retx_rung",
    "shared_threshold_fractions",
    "ber_fading",
    "ber_fading_quadrature",
    "appendix_integral",
    "appendix_integral_quadrature",
]

_ENVELOPE_SIGMAS = 12.0
_Q_UNDERFLOW = 40.0  # q_function(x) is exactly 0.0 for x above about 38.5
_U_CAP = 1e150  # a threshold above this acts as inf in the closed forms; its square stays finite


def check_reals(name: str, values) -> np.ndarray:
    """``values`` as a float array; InvalidParameterError unless it has a NumPy integer or float dtype."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must be a real number or array, got {values!r}")
    return array.astype(float, copy=False)


def q_function(x):
    """Gaussian tail probability Q(x), machine accurate for any real x."""
    return 0.5 * _np_erfc(check_reals("x", x) / math.sqrt(2.0))


# The (a_k, b_k) pairs of the two-term exponential fit
# Q(x) ~= sum_k a_k exp(-b_k x^2), x >= 0 (Loskot & Beaulieu 2009).
DEFAULT_PRONY = ((0.208, 0.971), (0.147, 0.525))


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------


def _quad(f, a: float, b: float) -> float:
    """Adaptive quadrature of f over [a, b], aiming at 1e-10 relative; raises NumericFailureError
    on non-convergence, a value that is not finite or an error above 1e-6 relative."""
    if a >= b:
        return 0.0
    from scipy import integrate

    out = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-10, limit=300, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or not math.isfinite(value) or abserr > 1e-6 * abs(value):
        raise NumericFailureError("adaptive quadrature did not converge", abserr)
    return value


# ---------------------------------------------------------------------------
# rectangle probabilities
# ---------------------------------------------------------------------------

# P(lo < r0 <= hi, c < r0 + S <= e) for the first-pass sample r0 ~ N(m, 1)
# and the sum S ~ N(i m, i) of i further copies, integrated over r0 by a
# composite Gauss-Legendre rule: _PANELS panels of 16 nodes on the window
# +-_WINDOW around the integrand's peak.  It agrees with a 40-digit oracle
# to 1e-9 relative or better for d = 1..4 and -5..15 dB, BERs down to 5e-62
# included (tests/test_oracle.py).
_PANELS = 4
_WINDOW = 10.0
# The 16-point Gauss-Legendre rule on [-1, 1]: np.polynomial.legendre.leggauss(16) to
# the last bit (tests/test_analytic.py), without the eigenvalue solve that loads LAPACK.
# The rule is symmetric, so the nodes in (0, 1) and their weights are listed.
_GL_HALF_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
              0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_GL_HALF_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
              0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)
_GL_X = np.array([-x for x in reversed(_GL_HALF_X)] + list(_GL_HALF_X))
_GL_W = np.array(_GL_HALF_W[::-1] + _GL_HALF_W)
_NODES = ((np.arange(_PANELS)[:, None] + 0.5 * (_GL_X + 1.0)) / _PANELS).ravel()
_WEIGHTS = np.tile(_GL_W, _PANELS) / (2.0 * _PANELS * math.sqrt(2.0 * math.pi))


def _between(lo, hi):
    """P(lo < Z <= hi) for standard normal Z, taken in the lower tail so
    that upper-tail intervals do not cancel."""
    upper = lo > 0.0
    return ndtr(np.where(upper, -lo, hi)) - ndtr(np.where(upper, -hi, lo))


def _gauss(x):
    """exp(-x*x/2), computed in place of the temporary array ``x``."""
    np.square(x, out=x)
    x *= -0.5
    return np.exp(x, out=x)


def _nodes(lo, hi, centre, m):
    """Nodes ``r`` and weights ``w`` (first-pass density N(m, 1) included)
    of the rule on (lo, hi] clipped to centre +- _WINDOW, with the nodes
    on a new last axis; ``m`` broadcasts against them."""
    start, stop = centre - _WINDOW, centre + _WINDOW
    a = np.minimum(np.maximum(lo, start), stop)
    width = (np.minimum(np.maximum(hi, a), stop) - a)[..., None]
    r = width * _NODES
    r += a[..., None]
    w = _gauss(r - m)
    w *= width
    return r, w


def _sums(lo, hi, c, e, m, i, s):
    """Weights ``w`` of the rule of :func:`_nodes` on (lo, hi] and the bounds
    ``zc``, ``ze`` of the copy sum S, standardized given each node r0, for
    the rectangle (lo < r0 <= hi, c < r0 + S <= e) of the first-pass sample
    r0 ~ N(m, 1) and the sum S ~ N(i m, i) of i further copies; s = sqrt(i).

    ``lo``, ``hi``, ``c`` and ``e`` broadcast to shape (..., J), ``m`` to
    (...) and ``i`` to (J,).  The integrand over r0, the density times the
    probability of (zc, ze], is log-concave with curvature at least 1 and
    peaks within about one unit of m clipped to [c, e] / (i+1), so the
    window around that point leaves out below exp(-40) of its mass.
    """
    m = np.asarray(m, dtype=float)[..., None]
    centre = np.minimum(np.maximum(m, c / (i + 1.0)), e / (i + 1.0))
    mean, w = _nodes(lo, hi, centre, m[..., None])
    mean += (i * m)[..., None]
    mean /= s[:, None]
    return w, (c / s)[..., None] - mean, np.subtract((e / s)[..., None], mean, out=mean)


def _rect(lo, hi, c, e, m, i):
    """Rectangle probabilities P(lo < r0 <= hi, c < r0 + S <= e), see :func:`_sums`."""
    w, zc, ze = _sums(lo, hi, c, e, m, i, np.sqrt(i))
    return (w * _between(zc, ze)) @ _WEIGHTS


def _mean_and_ladder(snr, us, least: int = 1):
    """(m, U) with the thresholds stacked on a last axis, broadcast to the shape of ``snr``
    and the thresholds; m keeps the shape of ``snr``.  InvalidParameterError for a ladder that is
    no sequence of reals or has fewer than ``least`` rungs, for a rung out of [0, inf] (its least
    element named) or a decreasing ladder as ``ProtocolConfig`` says, or an SNR out of (0, 100 dB]."""
    snr = check_reals("snr", snr)
    us = check_items("the threshold ladder", us, lambda u: check_reals("threshold", u))
    if len(us) < least:
        raise InvalidParameterError("need at least one threshold")
    if snr.size:  # the least element unless it is positive, else the greatest; nan fails
        check_snr("snr", snr.max() if snr.min() > 0.0 else snr.min())
    m = np.sqrt(2.0 * snr)
    ladder = np.zeros(np.broadcast_shapes(m.shape, *(u.shape for u in us)) + (len(us) + 1,))
    for j, u in enumerate(us, 1):
        ladder[..., j] = u
    if not (ladder[..., 1:] >= ladder[..., :-1]).all():  # 0, U_0, ..., U_{D-1}: nan fails too
        for u in ladder[..., 1:].reshape(-1, len(us)).min(axis=0):  # the rungs first, each by its least
            check_real("threshold", u, 0.0, math.inf, "[]")
        raise InvalidParameterError("thresholds must be nondecreasing")
    return m, np.ascontiguousarray(ladder[..., 1:])  # the kernels' pins hold on contiguous ladders


def _bands(u):
    """First-pass bands of a threshold ladder U_0..U_{D-1} (last axis of
    ``u``) as signed intervals, with the retransmissions each receives:
    [-U_0, U_0] gets D, and +-(U_{b-1}, U_b] gets D-b."""
    big_d = u.shape[-1]
    lo = np.concatenate([-u[..., :1], u[..., :-1], -u[..., 1:]], axis=-1)
    hi = np.concatenate([u[..., :1], u[..., 1:], -u[..., :-1]], axis=-1)
    copies = [big_d] + [big_d - b for b in range(1, big_d)] * 2
    return lo, hi, np.array(copies, dtype=float)


# ---------------------------------------------------------------------------
# multi-retransmission BER
# ---------------------------------------------------------------------------


def _check_thresholds(config: ProtocolConfig) -> tuple[float, ...]:
    config = check_type("config", config, ProtocolConfig)
    if config.retransmissions < 1:
        raise InvalidParameterError("need at least one retransmission")
    if config.thresholds is None:
        raise InvalidParameterError("config.thresholds must be set")
    return config.thresholds


def ber_exact(snr, us: Sequence):
    """Overall BER at SNR(s) ``snr`` with the threshold ladder ``us`` = U_0..U_{D-1}
    (entries scalars or arrays; the result has their broadcast shape).  First-pass band j
    in (U_{j-1}, U_j] receives D-j retransmissions, [0, U_0] all D and bits above U_{D-1} none.
    """
    m, u = _mean_and_ladder(snr, us)
    lo, hi, copies = _bands(u)
    errors = _rect(lo, hi, -math.inf, 0.0, m, copies).sum(axis=-1)
    return (q_function(m + u[..., -1]) + errors)[()]


def _prony_tail(d, u, m, prony):
    """Closed form of integral(chi_d(x, u), x = -inf..0), chi_d the density of
    the (d+1)-copy MRC average for first samples in [-u, u], minus its
    Q(m*sqrt(d+1)) offset: two Gaussian-times-Q corrections (0 for u = inf).
    ``d`` may be an array that broadcasts against ``u`` and ``m``."""
    total = 0.0
    for a_k, b_k in prony:
        s2 = 1.0 + 2.0 * b_k / d
        s = np.sqrt(s2)
        scale = np.sqrt(s2 / (d + 1))
        e_minus = np.exp(-b_k * (d + 1) * np.square(m - u) / (d * s2))
        e_plus = np.exp(-b_k * (d + 1) * np.square(m + u) / (d * s2))
        arg_plus = (m + 2.0 * b_k * u / d) / scale
        arg_minus = (m - 2.0 * b_k * u / d) / scale
        total = total + (a_k / s) * (e_minus * q_function(arg_plus) + e_plus * q_function(arg_minus))
    return total


def _tail_terms(d_total: int) -> tuple[list[int], list[int]]:
    """The closed form's tails in summation order as (copies, threshold indexes), odd
    positions added: minus (D, U_0), then plus (i, U_{D-i-1}), minus (i, U_{D-i})."""
    ds = [d_total] + [i for i in range(1, d_total) for _ in "+-"]
    return ds, [0] + [j for i in range(1, d_total) for j in (d_total - i - 1, d_total - i)]


def _prony_ber(snr, us: Sequence, prony=DEFAULT_PRONY):
    """Closed-form BER, uncapped: ber_fading averages it; above 0.5 below about -12 dB."""
    m, u = _mean_and_ladder(snr, us)
    u = np.minimum(u, _U_CAP)
    total = q_function(m + u[..., -1]) + q_function(m * math.sqrt(u.shape[-1] + 1))
    ds, cols = _tail_terms(u.shape[-1])  # every tail on a last axis
    tails = _prony_tail(np.array(ds, dtype=float), u[..., cols], m[..., None], prony)
    for k in range(len(cols)):
        total = total + tails[..., k] if k % 2 else total - tails[..., k]
    return total


def ber_approx(snr, us: Sequence, prony=DEFAULT_PRONY):
    """Closed-form counterpart of :func:`ber_exact` (no quadrature), on the exponential fit
    ``prony`` of the Gaussian tail (by the rule of ``Technology.ber_fit``); capped at 0.5."""
    prony = check_fit("prony", prony)
    return np.minimum(_prony_ber(snr, us, prony), 0.5)[()]  # no BER exceeds 0.5


_ber_exact, _ber_approx = ber_exact, ber_approx  # the names the acceptance gate imports


# ---------------------------------------------------------------------------
# retransmission-band probabilities
# ---------------------------------------------------------------------------


def retx_rung(snr, prefix: Sequence):
    """(fraction, slope) of round d+1 as a function of its top threshold u,
    given the SNR(s) ``snr`` and the d = len(prefix) thresholds of ``prefix``
    (all scalars or arrays): the expected fraction of bits whose reliability
    after d rounds is <= u, minus fresh bits below prefix[-1] (for d = 0,
    P(|r0| <= u)), and its u-derivative; a u below prefix[-1] (below 0 for
    d = 0) or nan raises InvalidParameterError.  What ``snr`` and ``prefix`` fix is
    built once; the nodes of :func:`_sums` move with u, as their window
    centre is m clipped to [-u, u], and u < m at most design optima."""
    m, ladder = _mean_and_ladder(snr, prefix, least=0)
    d = ladder.shape[-1]
    low = ladder[..., -1] if d else 0.0
    q_low = (q_function(low - m), q_function(low + m))
    if d:
        lo, hi, copies = _bands(ladder)
        gain, s = copies + 1.0, np.sqrt(copies)

    def fraction(u):
        u = check_reals("u", u)
        if not (u >= low).all():  # nan fails too
            raise InvalidParameterError("u must be at least prefix[-1], or 0 for an empty prefix")
        value = (q_low[0] - q_function(u - m)) + (q_low[1] - q_function(u + m))
        slope = np.exp(-0.5 * np.square(u - m)) + np.exp(-0.5 * np.square(u + m))
        if d:
            with np.errstate(over="ignore"):  # an infinite bound is the right one
                top = gain * u[..., None]
            w, zc, ze = _sums(lo, hi, -top, top, m, copies, s)
            value = value + ((w * _between(zc, ze)) @ _WEIGHTS).sum(axis=-1)
            density = _gauss(zc)
            density += _gauss(ze)
            density *= w
            slope = slope + ((density @ _WEIGHTS) * gain / s).sum(axis=-1)
        return value[()], (slope / math.sqrt(2.0 * math.pi))[()]

    return fraction


def shared_threshold_fractions(d: int, u, snr):
    """Expected fractions of rounds 2..d+1 of the sequential scheme (last axis) under one
    shared threshold u, entry i being ``retx_rung(snr, (u,) * i)(u)``: bits with |r0| <= u
    whose i+1 copy average is still within u.  Round 1 is missing (ROADMAP item 15)."""
    d = check_integer("d", d, 1)
    m, u = _mean_and_ladder(snr, (u,))
    copies = np.arange(1.0, d + 1.0)
    with np.errstate(over="ignore"):  # an infinite bound is the right one
        top = (copies + 1.0) * u
    return _rect(-u, u, -top, top, m, copies)


# ---------------------------------------------------------------------------
# slow-fading average
# ---------------------------------------------------------------------------


def _gauss_exp_tail_mean(theta: float, alpha: float, mean_snr: float) -> float:
    """E[exp(-theta*g) * Q(alpha*sqrt(g))] for exponentially distributed g."""
    # 0.5 / (1 + g (theta + a (a + sqrt(1/g + theta + a^2)))), a = alpha/sqrt(2), with sqrt(g)
    # moved inside: no 1/g (inf for a subnormal g), and the bracket stays finite up to 100 dB
    s, a = math.sqrt(mean_snr), alpha / math.sqrt(2.0)
    root = math.hypot(1.0, s * math.sqrt(theta + a * a))
    return 0.5 / (1.0 + s * (s * theta + a * (s * a + root)))


def _fading_tail(d: int, v: float, mean_snr: float) -> float:
    total = 0.0
    for a_k, b_k in DEFAULT_PRONY:
        s2 = 1.0 + 2.0 * b_k / d
        s = math.sqrt(s2)
        theta_minus = 2.0 * b_k * (d + 1) * (1.0 - v) ** 2 / (d * s2)
        theta_plus = 2.0 * b_k * (d + 1) * (1.0 + v) ** 2 / (d * s2)
        alpha_plus = math.sqrt(2.0 * (d + 1)) * (1.0 + 2.0 * b_k * v / d) / s
        alpha_minus = math.sqrt(2.0 * (d + 1)) * (1.0 - 2.0 * b_k * v / d) / s
        total += (a_k / s) * (
            _gauss_exp_tail_mean(theta_minus, alpha_plus, mean_snr)
            + _gauss_exp_tail_mean(theta_plus, alpha_minus, mean_snr)
        )
    return total


def _require_fading(link: LinkModel) -> float:
    link = check_type("link", link, LinkModel)
    if link.fading is None:
        raise InvalidParameterError("link must carry a slow chi-square fading descriptor")
    return link.fading.mean_snr


def ber_fading(config: ProtocolConfig, link: LinkModel) -> float:
    """Long-term average BER over slow chi-square fading, closed form.

    Under slow fading the decision thresholds track the per-packet SNR, so
    ``config.thresholds`` are interpreted as fractions of the mean combined
    sample: the instantaneous threshold at SNR g is ``v * sqrt(2*g)``.
    """
    us = tuple(min(v, _U_CAP) for v in _check_thresholds(config))
    mean_snr = _require_fading(link)
    # the means of Q(m + U_{D-1}) and Q(m sqrt(D+1)), m = sqrt(2g): no 1 - ... cancellation
    total = _gauss_exp_tail_mean(0.0, math.sqrt(2.0) * (1.0 + us[-1]), mean_snr)
    total += _gauss_exp_tail_mean(0.0, math.sqrt(2.0 * (len(us) + 1)), mean_snr)
    for k, (d, j) in enumerate(zip(*_tail_terms(len(us)))):
        total += (1.0 if k % 2 else -1.0) * _fading_tail(d, us[j], mean_snr)
    return total


def ber_fading_quadrature(config: ProtocolConfig, link: LinkModel, integrand: str = "approx") -> float:
    """Numeric average of the fixed-SNR BER over the exponential SNR density, taken in
    s = sqrt(g / mean SNR): the density is 2s exp(-s^2) on [0, sqrt(min(50, 750 / mean SNR))]
    (Q(sqrt(2g)) underflows near g = 745), with no 1/mean SNR and no lower cut-off.  A
    subnormal mean SNR, where g underflows to 0, raises ``NumericFailureError``.

    The oracle twin of :func:`ber_fading`; ``integrand`` selects the
    uncapped closed form (the one it averages) or the exact evaluator.
    """
    us = _check_thresholds(config)
    mean_snr = _require_fading(link)
    if mean_snr < sys.float_info.min:
        raise NumericFailureError("a subnormal mean SNR underflows the SNR g to 0", mean_snr)
    if integrand == "approx":
        fixed = _prony_ber
    elif integrand == "exact":
        fixed = ber_exact
    else:
        raise InvalidParameterError(f"unknown integrand {integrand!r}")
    scale = math.sqrt(2.0 * mean_snr)

    def f(s: float) -> float:
        m = scale * s  # sqrt(2g)
        return fixed(m * m / 2.0, tuple(v * m for v in us)) * 2.0 * s * math.exp(-s * s)

    return _quad(f, 0.0, math.sqrt(min(50.0, 750.0 / mean_snr)))


# ---------------------------------------------------------------------------
# tail-integral approximations
# ---------------------------------------------------------------------------

_APPENDIX_KINDS = ("semiinf_minus", "semiinf_plus", "finite_minus", "finite_plus")


def _check_appendix_args(kind: str, h, bound) -> tuple[tuple[float, ...], float | None]:
    if kind not in _APPENDIX_KINDS:
        raise InvalidParameterError(f"unknown integral kind {kind!r}")
    h = check_items("h", h, lambda v: check_real("h", v, 0.0, math.inf, "()"))
    if len(h) != 5:
        raise InvalidParameterError("h must hold 5 positive finite reals")
    return h, check_real("bound", bound, 0.0, math.inf, "()") if kind.startswith("finite") else None


def appendix_integral(kind: str, h: Sequence[float], bound: float | None = None) -> float:
    """Closed-form Gaussian-times-Q tail integrals.

    Evaluates ``integral(h1 * exp(-(x-h2)^2/h3) * Q(h4*(h5 -+ x)) dx)`` over
    (-inf, 0] for the ``semiinf`` kinds and over [-H, H] for the ``finite``
    kinds, with the Q factor replaced by its two-term exponential fit (the
    Gaussian-product integrals are then exact).
    """
    (h1, h2, h3, h4, h5), big_h = _check_appendix_args(kind, h, bound)
    # the fit is even in its argument, so a minus kind is its plus kind with h5 negated
    s5 = -h5 if kind.endswith("minus") else h5
    gap = h2 + s5
    total = 0.0
    for a_k, b_k in DEFAULT_PRONY:
        # the Gaussian product's width, exponent, centre and bounds are taken
        # per unit h3 (t = (1 + h3*c) / h3), so no product of huge h overflows
        c = b_k * h4 * h4
        t = 1.0 / h3 + c
        sq_a = math.sqrt(t)
        # a huge gap squares to inf (``**`` would raise), so the factor takes its 0 limit
        pref = h1 * a_k * math.sqrt(math.pi) / (2.0 * sq_a) * math.exp(-(gap * gap) * (c / t) / h3)
        if not pref > 0.0:
            # 0, or nan where h4 is so large that c = t = inf: either way the
            # term's 0 limit, as every bracket below lies in [-2, 2]
            continue
        if kind.startswith("semiinf"):
            total += pref * math.erfc((h2 / h3 - c * s5) / sq_a)
        else:
            bracket = math.erf(((big_h + h2) / h3 + c * (big_h - s5)) / sq_a)
            bracket += math.erf(((big_h - h2) / h3 + c * (big_h + s5)) / sq_a)
            total += pref * bracket
    return total


def appendix_integral_quadrature(
    kind: str, h: Sequence[float], bound: float | None = None
) -> float:
    """Oracle twin of :func:`appendix_integral` using the exact Q factor."""
    (h1, h2, h3, h4, h5), big_h = _check_appendix_args(kind, h, bound)
    sign = -1.0 if kind.endswith("minus") else 1.0

    def f(x: float) -> float:
        return h1 * math.exp(-((x - h2) ** 2) / h3) * float(q_function(h4 * (h5 + sign * x)))

    sigma = math.sqrt(h3 / 2.0)
    lo = h2 - _ENVELOPE_SIGMAS * sigma
    hi = h2 + _ENVELOPE_SIGMAS * sigma
    if sign < 0:
        # below h5 - 40/h4 the Q factor is 0.0; without this bound a wide
        # Gaussian window hides the O(1/h4)-wide mass from quad
        lo = max(lo, h5 - _Q_UNDERFLOW / h4)
    if kind.startswith("semiinf"):
        return _quad(f, lo, min(0.0, hi))
    return _quad(f, max(-big_h, lo), min(big_h, hi))
