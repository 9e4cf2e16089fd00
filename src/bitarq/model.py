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
import operator
from dataclasses import dataclass
from typing import Union

from .errors import InvalidParameterError

__all__ = [
    "SlowChiSquareFading",
    "LinkModel",
    "FixedRate",
    "FixedWindow",
    "FixedThreshold",
    "Strategy",
    "ProtocolConfig",
    "MAX_SNR_DB",
    "round_half_away",
    "feedback_bit_width",
    "check_integer",
    "check_snr",
]


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero.

    Applied globally wherever a design formula asks for "round" so that
    table reproductions are deterministic.
    """
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def feedback_bit_width(n: int, w: int) -> int:
    """Exact width of a subset-rank message: ceil(log2(C(n, w)))."""
    total = math.comb(n, w)
    return (total - 1).bit_length()


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


# Highest SNR accepted anywhere: up to here the equal-probability ladders
# meet their target fraction to 1e-11; that error is 7e-7 at 200 dB, 0.1 at 300.
MAX_SNR_DB = 100.0


def check_snr(name: str, snr: float) -> None:
    """Raise ``InvalidParameterError`` unless snr is positive and at most :data:`MAX_SNR_DB`."""
    if not 0 < snr <= 10.0 ** (MAX_SNR_DB / 10.0):
        raise InvalidParameterError(f"{name} must be positive and at most {MAX_SNR_DB:g} dB")


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
        if not isinstance(self.fading, (SlowChiSquareFading, type(None))):
            raise InvalidParameterError(
                f"fading must be a SlowChiSquareFading or None, got {self.fading!r}"
            )


@dataclass(frozen=True)
class FixedRate:
    """Constant forward rate; window size derived from it."""

    target_rate: float


@dataclass(frozen=True)
class FixedWindow:
    """Constant retransmission window, given as the fraction W/N."""

    window_fraction: float


@dataclass(frozen=True)
class FixedThreshold:
    """Single constant reliability threshold shared by every round."""

    threshold: float


Strategy = Union[FixedRate, FixedWindow, FixedThreshold]


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of a bitwise retransmission protocol.

    ``thresholds`` holds the per-round decision thresholds U_0..U_{D-1}
    (normalized reliability units, nondecreasing; the lower bound of every
    reliability band is zero and is not stored).  ``windows`` holds the
    per-round retransmission window sizes W_1..W_D.  Fields that a given
    strategy does not need may be left unset.  The sequential scheme
    retransmits the W_d least reliable bits when ``windows`` is set and the
    bits below U_d otherwise; ``strategy`` only labels the config
    (:func:`bitarq.optimize.resolve_protocol` builds configs without it).
    """

    packet_bits: int
    retransmissions: int
    strategy: Strategy | None = None
    thresholds: tuple[float, ...] | None = None
    windows: tuple[int, ...] | None = None

    def __post_init__(self):
        n = check_integer("packet_bits", self.packet_bits, 1)
        d = check_integer("retransmissions", self.retransmissions, 0)
        object.__setattr__(self, "packet_bits", n)
        object.__setattr__(self, "retransmissions", d)
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", tuple(float(u) for u in self.thresholds))
            if len(self.thresholds) != d:
                raise InvalidParameterError("need one threshold per retransmission")
            if any(not u >= 0 for u in self.thresholds):
                raise InvalidParameterError("thresholds must be non-negative (nan is not)")
            if any(a > b for a, b in zip(self.thresholds, self.thresholds[1:])):
                raise InvalidParameterError("thresholds must be nondecreasing")
        if self.windows is not None:
            windows = tuple(check_integer("window size", w, 1) for w in self.windows)
            object.__setattr__(self, "windows", windows)
            if len(self.windows) != d:
                raise InvalidParameterError("need one window size per retransmission")
            if any(w > n for w in self.windows):
                raise InvalidParameterError("window sizes must satisfy 1 <= W_d <= N")

