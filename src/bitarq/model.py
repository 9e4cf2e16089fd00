"""Domain types for bitwise selective retransmission.

Conventions used throughout the package:

* SNR values are linear (dB conversion happens only at the CLI boundary).
* The channel gain and the matched-filter noise standard deviation are
  normalized to 1, so the received samples live directly in the
  normalized-reliability space: a transmitted symbol arrives as
  ``N(+-sqrt(2*snr), 1)``.
* Reliability thresholds are expressed in that normalized space, i.e. they
  are compared directly against ``|sample| / sigma_w`` (equivalently, the
  threshold axis of the fixed-threshold sweeps, U / sqrt(Eb)).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import ConfigurationError, InvalidParameterError

__all__ = [
    "SlowChiSquareFading",
    "LinkModel",
    "FixedWindow",
    "FixedThreshold",
    "ProtocolConfig",
    "SCHEMES",
    "STRATEGIES",
    "MAX_SNR_DB",
    "round_half_away",
    "rate_range",
    "window_size",
    "window_rate",
    "scheme_protocol",
    "feedback_bit_width",
    "MAX_SEARCH_SUBSETS",
    "check_search",
    "optimal_c1",
    "check_integer",
    "check_real",
    "check_items",
    "check_type",
    "check_fit",
    "check_subset",
    "check_snr",
    "check_whole_packets",
]


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero.

    Applied globally wherever a design formula asks for "round" so that
    table reproductions are deterministic.
    """
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def rate_range(n: int, d: int) -> tuple[float, float]:
    """The admissible forward rates (lo, hi]: at lo every round resends all N
    bits, at hi one bit; a 1-bit packet has none."""
    if n == 1:
        raise InvalidParameterError("a 1-bit packet has no rate above full retransmission, so use a window")
    return window_rate(d, 1.0), n / (d + n)


def window_size(kind: str, x: float, n: int, d: int) -> int:
    """Integer window W of a forward rate, round((N/D)(1/R - 1)), or of a
    window fraction, round(F*N): rounded half away and clamped to [1, N]."""
    n, d = check_integer("n", n, 1), check_integer("d", d, 1)
    if kind == "rate":
        lo, hi = rate_range(n, d)
        x = check_real("rate", x, lo, hi * (1.0 + 1e-12), "(]", f"the admissible interval ({lo}, {hi}]")
        w = (n / d) * (1.0 / x - 1.0)
    elif kind == "window":
        w = check_real("window fraction", x, 0.0, 1.0, "(]") * n
    else:
        raise InvalidParameterError(f"unknown window strategy {kind!r}")
    return min(max(round_half_away(w), 1), n)


def window_rate(d: int, fraction):
    """Forward rate 1/(1 + D*F) of D rounds that each resend the fraction F of
    the packet (F = W/N for a window W); ``fraction`` may be a NumPy array."""
    return 1.0 / (1.0 + d * fraction)


def check_integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` at least ``minimum``.

    Accepts whatever ``operator.index`` accepts (Python and NumPy integers)
    except ``bool``; anything else raises ``InvalidParameterError``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if number < minimum:
        raise InvalidParameterError(f"{name} must be at least {minimum}, got {number}")
    return number


def check_real(name: str, value, lo: float, hi: float, closed: str = "()", domain: str = "") -> float:
    """``value`` as a float in lo..hi, each end closed where ``closed`` ("()", "(]", "[)" or "[]") has a
    bracket.  A Python or NumPy real passes, an int past the float range as an infinity.  A bool, nan or
    other value raises ``InvalidParameterError`` naming ``name``, the value and the interval or ``domain``."""
    real = isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)
    big = isinstance(value, numbers.Rational) and abs(value) >= 2 ** 1024 - 2 ** 970  # float() overflows
    x = math.nan if not real else (math.inf if value > 0 else -math.inf) if big else float(value)
    if (lo < x or closed[0] == "[" and lo == x) and (x < hi or closed[1] == "]" and x == hi):
        return x
    domain = domain or f"{closed[0]}{lo:g}, {hi:g}{closed[1]}"
    raise InvalidParameterError(f"{name} {x if real else value!r} outside {domain}")


def check_subset(n, w, least: int) -> tuple[int, int, int]:
    """(n, w, C(n, w)) as ints for w-subsets of n bits, ``least`` <= w <= n: ``least``
    is 1 for the subset-stream search, 0 for the combinadic codec, widths and delay models."""
    n, w = check_integer("n", n, least), check_integer("w", w, least)
    if w > n:
        raise InvalidParameterError(f"need {least} <= w <= n")
    return n, w, math.comb(n, w)


def feedback_bit_width(n: int, w: int) -> int:
    """Exact width of a subset-rank message: ceil(log2(C(n, w))), 0 <= w <= n."""
    return (check_subset(n, w, 0)[2] - 1).bit_length()


# Largest C(n, w) searched: about 7.5 ns per entry (5 ns per Philox word, 2.5 ns per compare)
# plus 6 us per search on a 2-core Xeon VM, so a mean search of 10**6 entries takes about 8 ms.
MAX_SEARCH_SUBSETS = 10**6


def check_search(n, w, c1) -> tuple[int, int, int, int]:
    """The subset-stream search shape (n, w, c1) and its count C(n, w) as ints;
    C(n, w) above :data:`MAX_SEARCH_SUBSETS` is rejected."""
    n, w, total = check_subset(n, w, 1)
    c1 = check_integer("c1", c1, 1)
    if total > MAX_SEARCH_SUBSETS:
        raise InvalidParameterError(
            f"C({n}, {w}) exceeds the subset-stream search limit {MAX_SEARCH_SUBSETS}; "
            "report the subset with the combinadic codec (combinadic_encode) instead"
        )
    return n, w, c1, total


def optimal_c1(n: int, w: int) -> int:
    """Residual width minimizing the expected report delay:
    round(-0.5 + log2(E[K])) with E[K] = C(n, w), at least 1."""
    return max(1, round_half_away(-0.5 + math.log2(check_subset(n, w, 0)[2])))


def check_whole_packets(bits: int, packet_bits: int) -> None:
    """Raise ``InvalidParameterError`` unless ``bits`` is a positive whole
    number of ``packet_bits``-bit packets."""
    if bits < 1 or bits % packet_bits:
        raise InvalidParameterError("bits must be a positive multiple of packet_bits")


# Highest SNR accepted anywhere: up to here the equal-probability ladders
# meet their target fraction to 1e-11; that error is 7e-7 at 200 dB, 0.1 at 300.
MAX_SNR_DB = 100.0


def check_snr(name: str, snr) -> float:
    """``snr`` as a float, positive and at most :data:`MAX_SNR_DB` (see :func:`check_real`)."""
    return check_real(name, snr, 0.0, 10 ** (MAX_SNR_DB / 10), "(]", f"(0, {MAX_SNR_DB:g} dB]")


@dataclass(frozen=True)
class SlowChiSquareFading:
    """Slow chi-square (exponential-power) fading with the given mean SNR,
    at most :data:`MAX_SNR_DB`.

    The SNR is constant over a packet and all of its retransmissions and is
    drawn from ``p(g) = exp(-g/mean_snr) / mean_snr``.
    """

    mean_snr: float

    def __post_init__(self):
        check_snr("fading mean_snr", self.mean_snr)


@dataclass(frozen=True)
class LinkModel:
    """Binary antipodal AWGN link in the normalized sample space.

    Attributes:
        snr_per_symbol: linear SNR per transmitted binary symbol, Es/N0, at
            most :data:`MAX_SNR_DB`; a symbol arrives as
            ``N(+-sqrt(2*snr_per_symbol), 1)``.
        fading: optional slow chi-square fading descriptor.
    """

    snr_per_symbol: float
    fading: SlowChiSquareFading | None = None

    def __post_init__(self):
        check_snr("snr_per_symbol", self.snr_per_symbol)
        check_type("fading", self.fading, (SlowChiSquareFading, type(None)))

    def awgn_snr(self) -> float:
        """``snr_per_symbol`` for the AWGN-only design model and Monte Carlo;
        ``ConfigurationError`` for a link with ``fading`` set."""
        if self.fading is not None:
            raise ConfigurationError("the design model and the Monte Carlo are AWGN only, not fading; "
                                     "give a link without fading")
        return self.snr_per_symbol


@dataclass(frozen=True)
class FixedWindow:
    """Constant retransmission window, given as the fraction W/N."""

    window_fraction: float


@dataclass(frozen=True)
class FixedThreshold:
    """Single constant reliability threshold shared by every round."""

    threshold: float


def check_items(name: str, values, convert) -> tuple:
    """``tuple(map(convert, values))``, raising ``InvalidParameterError`` where
    ``values`` is a str, bytes or no sequence, or ``convert`` fails with a raw error."""
    try:
        if isinstance(values, (str, bytes)):  # a sequence of characters or bytes, not of numbers
            raise TypeError
        return tuple(map(convert, values))
    except InvalidParameterError:
        raise
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a sequence of numbers, got {values!r}") from None


def check_type(name: str, value, types):
    """``value`` if it is a ``types`` (a class or a tuple of them), else ``InvalidParameterError``."""
    if not isinstance(value, types):
        names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise InvalidParameterError(f"{name} must be a {names.replace('NoneType', 'None')}, got {value!r}")
    return value


def check_fit(name: str, pairs) -> tuple[tuple[float, float], ...]:
    """``pairs`` as one or more (coefficient, rate) pairs of reals in (0, inf) of a fit sum(c exp(-k x))."""
    fit = check_items(name, pairs, lambda pair: check_items(
        name, pair, lambda v: check_real(f"a {name} coefficient or rate", v, 0.0, math.inf)))
    if not fit or any(len(pair) != 2 for pair in fit):
        raise InvalidParameterError(f"{name} must hold one or more (coefficient, rate) pairs")
    return fit


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of a bitwise retransmission protocol.

    ``thresholds`` holds the per-round decision thresholds U_0..U_{D-1}
    (normalized reliability units, nondecreasing; the lower bound of every
    reliability band is zero and is not stored).  ``windows`` holds the
    per-round retransmission window sizes W_1..W_D.  Fields that a given
    scheme does not read may be left unset.  The sequential scheme
    retransmits the W_d least reliable bits when ``windows`` is set and the
    bits below U_d otherwise.  ``strategy`` is a label that no package code
    reads; it stays only while ``perfbench/worker.py`` labels its configs
    with it (ROADMAP item 14).
    """

    packet_bits: int
    retransmissions: int
    strategy: FixedWindow | FixedThreshold | None = None
    thresholds: tuple[float, ...] | None = None
    windows: tuple[int, ...] | None = None

    def __post_init__(self):
        n = check_integer("packet_bits", self.packet_bits, 1)
        d = check_integer("retransmissions", self.retransmissions, 0)
        object.__setattr__(self, "packet_bits", n)
        object.__setattr__(self, "retransmissions", d)
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", check_items(
                "thresholds", self.thresholds, lambda u: check_real("threshold", u, 0.0, math.inf, "[]")))
            if len(self.thresholds) != d:
                raise InvalidParameterError("need one threshold per retransmission")
            if any(not a <= b for a, b in zip(self.thresholds, self.thresholds[1:])):
                raise InvalidParameterError("thresholds must be nondecreasing")
        if self.windows is not None:
            windows = check_items("windows", self.windows, lambda w: check_integer("window size", w, 1))
            object.__setattr__(self, "windows", windows)
            if len(self.windows) != d:
                raise InvalidParameterError("need one window size per retransmission")
            if any(w > n for w in self.windows):
                raise InvalidParameterError("window sizes must satisfy 1 <= W_d <= N")


# The Monte Carlo schemes: the deployed protocol, the analysis model and plain repetition.
SCHEMES = ("sequential", "preassigned", "full_repetition")
# The design strategies: a forward rate, a window fraction W/N or a shared threshold.
STRATEGIES = ("rate", "window", "threshold")


def scheme_protocol(
    scheme: str, flag: tuple[str, float] | None, n: int, d: int, base_snr: float
) -> tuple[ProtocolConfig, float]:
    """(ProtocolConfig, equalized SNR) that run ``scheme`` with the strategy ``flag``:
    None or (kind, x), x a forward rate, window fraction or shared threshold.
    The config holds only what the scheme reads, and only the ladder and the
    shared-threshold rate import the optimizer (and SciPy):

    * None (full repetition, or D = 0): no windows, no thresholds, at base_snr / (1 + D);
    * a rate or window: W = :func:`window_size` in every round, at
      base_snr * :func:`window_rate`; the preassigned scheme also gets the
      equal-probability ladder at W/N (the sequential scheme reads W alone);
    * a threshold: U in every round, no windows, at the shared-threshold rate.
    """
    if scheme not in SCHEMES:
        raise InvalidParameterError(f"unknown scheme {scheme!r}")
    n, d = check_integer("n", n, 1), check_integer("d", d, 0)
    try:  # any pair, a list too; a str, a number or another length is no (kind, value)
        if flag is not None and (isinstance(flag, (str, bytes)) or len(flag) != 2):
            raise TypeError
    except TypeError:
        raise InvalidParameterError(f"flag must be None or one (kind, value) pair, got {flag!r}") from None
    if (flag is None) != (scheme == "full_repetition" or d == 0):
        raise InvalidParameterError("full repetition and D = 0 take no strategy; every other scheme "
                                    "takes exactly one rate, window or threshold")
    check_snr("base_snr", base_snr)
    us = ws = None
    if flag is None:
        snr = base_snr / (1.0 + d)
    elif flag[0] == "threshold":
        from .optimize import resolve_strategy

        u = check_real("threshold", flag[1], 0.0, math.inf, "[]")  # a scalar here, unlike in resolve_strategy
        us, _, snr = resolve_strategy("threshold", u, d, base_snr)
    else:
        ws = (window_size(*flag, n, d),) * d
        snr = base_snr * window_rate(d, ws[0] / n)
    check_snr("snr", snr)  # a tiny base SNR can underflow to 0 here
    if scheme == "preassigned" and ws is not None:
        from .optimize import equal_probability_thresholds

        us = equal_probability_thresholds(d, ws[0] / n, LinkModel(snr))
    return ProtocolConfig(n, d, thresholds=us, windows=ws), snr
