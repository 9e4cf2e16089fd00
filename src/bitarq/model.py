"""Domain types and rate/window arithmetic for bitwise selective retransmission.

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
    "fixed_rate_window",
    "round_half_away",
]


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero.

    Applied globally wherever a design formula asks for "round" so that
    table reproductions are deterministic.
    """
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


@dataclass(frozen=True)
class SlowChiSquareFading:
    """Slow chi-square (exponential-power) fading with the given mean SNR.

    The SNR is constant over a packet and all of its retransmissions and is
    drawn from ``p(g) = exp(-g/mean_snr) / mean_snr``.
    """

    mean_snr: float

    def __post_init__(self):
        if not self.mean_snr > 0:
            raise InvalidParameterError("fading mean_snr must be positive")


# Highest SNR accepted anywhere: up to here the equal-probability ladders
# meet their target fraction to 1e-11; that error is 7e-7 at 200 dB, 0.1 at 300.
MAX_SNR_DB = 100.0


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
        if not 0 < self.snr_per_symbol <= 10.0 ** (MAX_SNR_DB / 10.0):
            raise InvalidParameterError(f"snr_per_symbol must be positive and at most {MAX_SNR_DB:g} dB")


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
    strategy does not need may be left unset.
    """

    packet_bits: int
    retransmissions: int
    strategy: Strategy | None = None
    thresholds: tuple[float, ...] | None = None
    windows: tuple[int, ...] | None = None

    def __post_init__(self):
        n, d = self.packet_bits, self.retransmissions
        if n < 1:
            raise InvalidParameterError("packet_bits must be positive")
        if d < 0:
            raise InvalidParameterError("retransmissions must be non-negative")
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", tuple(float(u) for u in self.thresholds))
            if len(self.thresholds) != d:
                raise InvalidParameterError("need one threshold per retransmission")
            if any(not u >= 0 for u in self.thresholds):
                raise InvalidParameterError("thresholds must be non-negative (nan is not)")
            if any(a > b for a, b in zip(self.thresholds, self.thresholds[1:])):
                raise InvalidParameterError("thresholds must be nondecreasing")
        if self.windows is not None:
            object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
            if len(self.windows) != d:
                raise InvalidParameterError("need one window size per retransmission")
            if any(not 1 <= w <= n for w in self.windows):
                raise InvalidParameterError("window sizes must satisfy 1 <= W_d <= N")


def fixed_rate_window(n: int, d: int, rate: float) -> int:
    """Window size realizing a target forward rate: round((N/D)(1/R - 1)).

    The admissible rates are 1/(1+D) < R <= N/(D+N); outside that interval
    no window in [1, N] exists.
    """
    if n < 1 or d < 1:
        raise InvalidParameterError("need n >= 1 and d >= 1")
    lo, hi = 1.0 / (1.0 + d), n / (d + n)
    if not (rate > lo and rate <= hi * (1.0 + 1e-12)):
        raise InvalidParameterError(
            f"rate {rate} outside the admissible interval ({lo}, {hi}]"
        )
    w = round_half_away((n / d) * (1.0 / rate - 1.0))
    return min(max(w, 1), n)
