"""Closed-form BER engine for bitwise selective retransmission.

Everything is evaluated in the normalized sample space: a fresh bit arrives
as ``N(m, 1)`` with ``m = sqrt(2*snr)``, and after ``d`` retransmissions the
MRC average of the ``d+1`` copies is ``N(m, 1/(d+1))``.  Reliability
thresholds live in the same space (see :mod:`bitarq.model`).

Two evaluation routes are provided for the BERs: adaptive quadrature of
the exact density kernels (the oracle) and closed forms built on a
two-term exponential fit of the Gaussian tail probability (the fast path).
Retransmission-band probabilities are evaluated by quadrature only.

The analysis assumes the uniform simplification of one window size and one
feedback length shared by all rounds; the protocol types themselves also
carry per-round values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate
from scipy.special import erf as _np_erf
from scipy.special import erfc as _np_erfc

from .errors import InvalidParameterError, NumericFailureError
from .model import LinkModel, ProtocolConfig

__all__ = [
    "q_function",
    "PronyCoefficients",
    "DEFAULT_PRONY",
    "q_prony",
    "ReliabilityBand",
    "ber_no_retx",
    "prob_in_band",
    "chi_kernel",
    "lambda_kernel",
    "ber_exact",
    "ber_approx",
    "prob_retx_band",
    "ber_fading",
    "ber_fading_quadrature",
    "appendix_integral",
    "appendix_integral_quadrature",
]

_QUAD_EPSABS = 1e-10
_ENVELOPE_SIGMAS = 12.0


def q_function(x):
    """Gaussian tail probability Q(x), machine accurate for any real x."""
    return 0.5 * _np_erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class PronyCoefficients:
    """Two-term exponential fit Q(x) ~= sum_k a_k exp(-b_k x^2), x >= 0."""

    a: tuple[float, float] = (0.208, 0.147)
    b: tuple[float, float] = (0.971, 0.525)


DEFAULT_PRONY = PronyCoefficients()


def q_prony(x, coeffs: PronyCoefficients = DEFAULT_PRONY):
    """Exponential-fit approximation of Q(x); valid on the right tail only."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for a, b in zip(coeffs.a, coeffs.b):
        out = out + a * np.exp(-b * x * x)
    return out


@dataclass(frozen=True)
class ReliabilityBand:
    """Closed reliability interval [lower, upper]; upper may be inf."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower < 0:
            raise InvalidParameterError("band lower edge must be non-negative")
        if self.upper < self.lower:
            raise InvalidParameterError("band upper edge must be >= lower edge")


# ---------------------------------------------------------------------------
# density kernels
# ---------------------------------------------------------------------------


def _chi(d: int, x: float, u0: float, m: float) -> float:
    """Sub-density of the (d+1)-copy MRC average at x, for bits whose first
    sample fell inside [-u0, u0].  Integrates to that band probability."""
    if u0 <= 0.0:
        return 0.0
    beta = math.sqrt((d + 1) / (2.0 * d))
    norm = math.sqrt((d + 1) / (2.0 * math.pi))
    env = math.exp(-0.5 * (d + 1) * (x - m) ** 2)
    window = math.erf(beta * (u0 - x)) + math.erf(beta * (u0 + x))
    return 0.5 * norm * env * window


def _lambda(d: int, x: float, u_hi: float, u_lo: float, m: float) -> float:
    """Like ``_chi`` but for first samples inside the band (u_lo, u_hi]."""
    if u_hi <= u_lo:
        return 0.0
    beta = math.sqrt((d + 1) / (2.0 * d))
    norm = math.sqrt((d + 1) / (2.0 * math.pi))
    env = math.exp(-0.5 * (d + 1) * (x - m) ** 2)
    window = (
        math.erf(beta * (u_hi + x))
        + math.erf(beta * (u_hi - x))
        - math.erf(beta * (u_lo + x))
        - math.erf(beta * (u_lo - x))
    )
    return 0.5 * norm * env * window


def chi_kernel(d: int, r, u0: float, link: LinkModel):
    """Evaluate the single-band combining kernel at sample value(s) r."""
    if d < 1:
        raise InvalidParameterError("kernel order d must be >= 1")
    m = math.sqrt(2.0 * link.snr_per_symbol)
    r = np.asarray(r, dtype=float)
    beta = math.sqrt((d + 1) / (2.0 * d))
    norm = math.sqrt((d + 1) / (2.0 * math.pi))
    env = np.exp(-0.5 * (d + 1) * (r - m) ** 2)
    window = _np_erf(beta * (u0 - r)) + _np_erf(beta * (u0 + r))
    return 0.5 * norm * env * window


def lambda_kernel(d: int, r, u_hi: float, u_lo: float, link: LinkModel):
    """Evaluate the two-edge band combining kernel at sample value(s) r."""
    if d < 1:
        raise InvalidParameterError("kernel order d must be >= 1")
    if u_hi < u_lo or u_lo < 0:
        raise InvalidParameterError("need u_hi >= u_lo >= 0")
    m = math.sqrt(2.0 * link.snr_per_symbol)
    r = np.asarray(r, dtype=float)
    if u_hi == u_lo:
        return np.zeros_like(r)
    beta = math.sqrt((d + 1) / (2.0 * d))
    norm = math.sqrt((d + 1) / (2.0 * math.pi))
    env = np.exp(-0.5 * (d + 1) * (r - m) ** 2)
    window = (
        _np_erf(beta * (u_hi + r))
        + _np_erf(beta * (u_hi - r))
        - _np_erf(beta * (u_lo + r))
        - _np_erf(beta * (u_lo - r))
    )
    return 0.5 * norm * env * window


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------


def _quad(f, a: float, b: float) -> float:
    if a >= b:
        return 0.0
    out = integrate.quad(f, a, b, epsabs=_QUAD_EPSABS, epsrel=1e-12, limit=300, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 1e-8:
        raise NumericFailureError("adaptive quadrature did not converge", abserr)
    return value


def _kernel_integral(f, m: float, d: int, lo: float, hi: float) -> float:
    """Integrate a kernel of order d over [lo, hi] truncated to the support
    of its Gaussian envelope (mean m, std 1/sqrt(d+1))."""
    sigma = 1.0 / math.sqrt(d + 1)
    a = max(lo, m - _ENVELOPE_SIGMAS * sigma)
    b = min(hi, m + _ENVELOPE_SIGMAS * sigma)
    return _quad(f, a, b)


# ---------------------------------------------------------------------------
# single-transmission quantities
# ---------------------------------------------------------------------------


def ber_no_retx(link: LinkModel, u0: float) -> float:
    """Error probability restricted to reliabilities in [0, u0].

    With u0 = inf this is the uncoded antipodal BER, Q(sqrt(2*snr)).
    """
    if u0 < 0:
        raise InvalidParameterError("u0 must be non-negative")
    m = math.sqrt(2.0 * link.snr_per_symbol)
    return _q(m) - _q(m + u0)


def prob_in_band(link: LinkModel, band: ReliabilityBand) -> float:
    """Probability that a fresh bit's reliability lands inside the band."""
    m = math.sqrt(2.0 * link.snr_per_symbol)
    return _band_prob(m, band.lower, band.upper)


def _band_prob(m: float, lo: float, hi: float) -> float:
    return (_q(lo - m) - _q(hi - m)) + (_q(lo + m) - _q(hi + m))


# ---------------------------------------------------------------------------
# multi-retransmission BER
# ---------------------------------------------------------------------------


def _check_thresholds(config: ProtocolConfig) -> tuple[float, ...]:
    if config.retransmissions < 1:
        raise InvalidParameterError("need at least one retransmission")
    if config.thresholds is None:
        raise InvalidParameterError("config.thresholds must be set")
    return config.thresholds


def _ber_exact(snr: float, us: Sequence[float]) -> float:
    m = math.sqrt(2.0 * snr)
    d_total = len(us)
    total = _q(m + us[-1])
    for i in range(1, d_total):
        u_hi, u_lo = us[d_total - i], us[d_total - i - 1]
        total += _kernel_integral(
            lambda x: _lambda(i, x, u_hi, u_lo, m), m, i, -math.inf, 0.0
        )
    total += _kernel_integral(
        lambda x: _chi(d_total, x, us[0], m), m, d_total, -math.inf, 0.0
    )
    return total


def ber_exact(config: ProtocolConfig, link: LinkModel) -> float:
    """Overall BER of the quantized retransmission scheme by quadrature.

    Bits are grouped by their first-pass reliability band: band j in
    (U_{j-1}, U_j] receives D-j retransmissions, the lowest band receives
    all D, and bits above U_{D-1} none.
    """
    us = _check_thresholds(config)
    return _ber_exact(link.snr_per_symbol, us)


def _prony_tail(d: int, u: float, m: float, coeffs: PronyCoefficients) -> float:
    """Closed form of integral(chi_d(x, u), x = -inf..0) minus its
    Q(m*sqrt(d+1)) offset, i.e. the two Gaussian-times-Q corrections."""
    total = 0.0
    for a_k, b_k in zip(coeffs.a, coeffs.b):
        s2 = 1.0 + 2.0 * b_k / d
        s = math.sqrt(s2)
        scale = math.sqrt(s2 / (d + 1))
        if math.isinf(u):
            continue
        e_minus = math.exp(-b_k * (d + 1) * (m - u) ** 2 / (d * s2))
        e_plus = math.exp(-b_k * (d + 1) * (m + u) ** 2 / (d * s2))
        arg_plus = (m + 2.0 * b_k * u / d) / scale
        arg_minus = (m - 2.0 * b_k * u / d) / scale
        total += (a_k / s) * (e_minus * _q(arg_plus) + e_plus * _q(arg_minus))
    return total


def _ber_approx(snr: float, us: Sequence[float], coeffs: PronyCoefficients) -> float:
    m = math.sqrt(2.0 * snr)
    d_total = len(us)
    total = _q(m + us[-1]) + _q(m * math.sqrt(d_total + 1))
    total -= _prony_tail(d_total, us[0], m, coeffs)
    for i in range(1, d_total):
        total += _prony_tail(i, us[d_total - i - 1], m, coeffs)
        total -= _prony_tail(i, us[d_total - i], m, coeffs)
    return total


def ber_approx(
    config: ProtocolConfig, link: LinkModel, coeffs: PronyCoefficients = DEFAULT_PRONY
) -> float:
    """Closed-form counterpart of :func:`ber_exact` (no quadrature)."""
    us = _check_thresholds(config)
    return _ber_approx(link.snr_per_symbol, us, coeffs)


# ---------------------------------------------------------------------------
# retransmission-band probabilities
# ---------------------------------------------------------------------------


def _prob_retx(d: int, snr: float, us: Sequence[float]) -> float:
    """Probability that a bit's reliability after d rounds is <= us[d],
    excluding fresh bits already below us[d-1]; equivalently the expected
    fraction of the packet retransmitted in round d+1.  ``us`` holds the
    d+1 thresholds U_0..U_d."""
    m = math.sqrt(2.0 * snr)
    total = _band_prob(m, us[d - 1], us[d])
    hi = us[d]
    for i in range(1, d):
        u_hi, u_lo = us[d - i], us[d - i - 1]
        total += _kernel_integral(
            lambda x: _lambda(i, x, u_hi, u_lo, m), m, i, -hi, hi
        )
    total += _kernel_integral(lambda x: _chi(d, x, us[0], m), m, d, -hi, hi)
    return total


def prob_retx_band(
    d: int,
    config: ProtocolConfig,
    link: LinkModel,
    u_top: float | None = None,
) -> float:
    """Expected fraction of bits retransmitted in round d+1.

    Counts every bit whose combined reliability after d rounds is at most
    the band's upper threshold, fresh bits in (U_{d-1}, U_d] included.  For
    d equal to the total number of retransmissions the upper threshold is
    not part of the config; it defaults to U_{D-1} (the shared-threshold
    convention) unless ``u_top`` is given.
    """
    us = _check_thresholds(config)
    big_d = config.retransmissions
    if not 1 <= d <= big_d:
        raise InvalidParameterError("band index d must be in 1..D")
    if d < big_d:
        upper = us[d]
    else:
        upper = us[-1] if u_top is None else float(u_top)
        if upper < us[-1]:
            raise InvalidParameterError("u_top must be >= U_{D-1}")
    return _prob_retx(d, link.snr_per_symbol, tuple(us[:d]) + (upper,))


# ---------------------------------------------------------------------------
# slow-fading average
# ---------------------------------------------------------------------------


def _gauss_exp_tail_mean(theta: float, alpha: float, mean_snr: float) -> float:
    """E[exp(-theta*g) * Q(alpha*sqrt(g))] for exponentially distributed g."""
    half_a2 = 0.5 * alpha * alpha
    root = math.sqrt(1.0 / mean_snr + theta + half_a2)
    denom = 1.0 + mean_snr * (theta + (alpha / math.sqrt(2.0)) * (alpha / math.sqrt(2.0) + root))
    return 0.5 / denom


def _fading_tail(d: int, v: float, mean_snr: float, coeffs: PronyCoefficients) -> float:
    total = 0.0
    for a_k, b_k in zip(coeffs.a, coeffs.b):
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
    if link.fading is None:
        raise InvalidParameterError("link must carry a slow chi-square fading descriptor")
    return link.fading.mean_snr


def ber_fading(
    config: ProtocolConfig, link: LinkModel, coeffs: PronyCoefficients = DEFAULT_PRONY
) -> float:
    """Long-term average BER over slow chi-square fading, closed form.

    Under slow fading the decision thresholds track the per-packet SNR, so
    ``config.thresholds`` are interpreted as fractions of the mean combined
    sample: the instantaneous threshold at SNR g is ``v * sqrt(2*g)``.
    """
    us = _check_thresholds(config)
    mean_snr = _require_fading(link)
    d_total = config.retransmissions
    v_last = us[-1]
    total = 1.0
    total -= 0.5 / math.sqrt(1.0 + 1.0 / (mean_snr * (1.0 + v_last) ** 2))
    total -= 0.5 / math.sqrt(1.0 + 1.0 / (mean_snr * (d_total + 1)))
    total -= _fading_tail(d_total, us[0], mean_snr, coeffs)
    for i in range(1, d_total):
        total += _fading_tail(i, us[d_total - i - 1], mean_snr, coeffs)
        total -= _fading_tail(i, us[d_total - i], mean_snr, coeffs)
    return total


def ber_fading_quadrature(
    config: ProtocolConfig,
    link: LinkModel,
    integrand: str = "approx",
    upper_factor: float = 50.0,
) -> float:
    """Numeric average of the fixed-SNR BER over the exponential SNR density.

    The oracle twin of :func:`ber_fading`; ``integrand`` selects the
    closed-form or the quadrature fixed-SNR evaluator.
    """
    us = _check_thresholds(config)
    mean_snr = _require_fading(link)
    if integrand == "approx":
        fixed = lambda g, zs: _ber_approx(g, zs, DEFAULT_PRONY)
    elif integrand == "exact":
        fixed = lambda g, zs: _ber_exact(g, zs)
    else:
        raise InvalidParameterError(f"unknown integrand {integrand!r}")

    def f(g: float) -> float:
        zs = tuple(v * math.sqrt(2.0 * g) for v in us)
        return fixed(g, zs) * math.exp(-g / mean_snr) / mean_snr

    return _quad(f, 1e-12, upper_factor * mean_snr)


# ---------------------------------------------------------------------------
# tail-integral approximations
# ---------------------------------------------------------------------------

_APPENDIX_KINDS = ("semiinf_minus", "semiinf_plus", "finite_minus", "finite_plus")


def _check_appendix_args(kind: str, h, bound):
    if kind not in _APPENDIX_KINDS:
        raise InvalidParameterError(f"unknown integral kind {kind!r}")
    if len(h) != 5 or any(not hi > 0 for hi in h):
        raise InvalidParameterError("h must hold 5 positive reals")
    if kind.startswith("finite"):
        if bound is None or not bound > 0 or math.isinf(bound):
            raise InvalidParameterError("finite kinds need a positive finite bound")


def appendix_integral(
    kind: str,
    h: Sequence[float],
    bound: float | None = None,
    coeffs: PronyCoefficients = DEFAULT_PRONY,
) -> float:
    """Closed-form Gaussian-times-Q tail integrals.

    Evaluates ``integral(h1 * exp(-(x-h2)^2/h3) * Q(h4*(h5 -+ x)) dx)`` over
    (-inf, 0] for the ``semiinf`` kinds and over [-H, H] for the ``finite``
    kinds, with the Q factor replaced by its two-term exponential fit (the
    Gaussian-product integrals are then exact).
    """
    _check_appendix_args(kind, h, bound)
    h1, h2, h3, h4, h5 = (float(v) for v in h)
    total = 0.0
    for a_k, b_k in zip(coeffs.a, coeffs.b):
        c = b_k * h4 * h4
        s = 1.0 + h3 * c
        sq_a = math.sqrt(1.0 / h3 + c)
        denom = math.sqrt(h3 * s)
        pref = h1 * a_k * math.sqrt(math.pi) / (2.0 * sq_a)
        if kind == "semiinf_minus":
            total += pref * math.exp(-c * (h2 - h5) ** 2 / s) * math.erfc((h2 + h3 * c * h5) / denom)
        elif kind == "semiinf_plus":
            total += pref * math.exp(-c * (h2 + h5) ** 2 / s) * math.erfc((h2 - h3 * c * h5) / denom)
        elif kind == "finite_minus":
            big_h = float(bound)
            mu = (h2 + h3 * c * h5) / s
            bracket = math.erf((h2 + big_h + h3 * c * (h5 + big_h)) / denom)
            bracket += math.copysign(1.0, big_h - mu) * math.erf(sq_a * abs(big_h - mu))
            total += pref * math.exp(-c * (h2 - h5) ** 2 / s) * bracket
        else:  # finite_plus
            big_h = float(bound)
            bracket = math.erf((big_h + h2 + h3 * c * (big_h - h5)) / denom)
            bracket += math.erf((big_h - h2 + h3 * c * (big_h + h5)) / denom)
            total += pref * math.exp(-c * (h2 + h5) ** 2 / s) * bracket
    return total


def appendix_integral_quadrature(
    kind: str, h: Sequence[float], bound: float | None = None
) -> float:
    """Oracle twin of :func:`appendix_integral` using the exact Q factor."""
    _check_appendix_args(kind, h, bound)
    h1, h2, h3, h4, h5 = (float(v) for v in h)
    sign = -1.0 if kind.endswith("minus") else 1.0

    def f(x: float) -> float:
        return h1 * math.exp(-((x - h2) ** 2) / h3) * _q(h4 * (h5 + sign * x))

    sigma = math.sqrt(h3 / 2.0)
    if kind.startswith("semiinf"):
        lo = h2 - _ENVELOPE_SIGMAS * sigma
        hi = min(0.0, h2 + _ENVELOPE_SIGMAS * sigma)
        return _quad(f, lo, hi)
    big_h = float(bound)
    lo = max(-big_h, h2 - _ENVELOPE_SIGMAS * sigma)
    hi = min(big_h, h2 + _ENVELOPE_SIGMAS * sigma)
    return _quad(f, lo, hi)
