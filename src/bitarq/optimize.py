"""BER-minimizing parameter search for the three retransmission strategies.

Each optimizer sweeps its strategy parameter on a deterministic grid,
refines the best cell by golden-section search, and reports the minimizer
together with a quadrature re-evaluation of the minimum (a guard against
optimizing artifacts of the closed-form objective).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.optimize import brentq

from .analytic import (DEFAULT_PRONY, _band_prob, _ber_approx, _ber_exact, _chi,
    _kernel_integral, _prob_retx)
from .errors import InvalidParameterError
from .model import LinkModel, round_half_away

__all__ = [
    "SweepResult",
    "golden_section",
    "equal_probability_thresholds",
    "fixed_threshold_windows",
    "fixed_threshold_rate",
    "optimize_rate",
    "optimize_window",
    "optimize_threshold",
    "is_unimodal",
    "threshold_u_max",
    "sweep_grid",
    "resolve_strategy",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one strategy sweep.

    ``grid`` holds (parameter, BER) pairs from the coarse sweep; the
    minimizer comes from golden-section refinement unless it sits on the
    search boundary.  ``min_ber_exact`` re-evaluates the minimum by
    quadrature.  ``windows`` and ``forward_rate`` describe the protocol
    realized at the minimizer.
    """

    grid: tuple[tuple[float, float], ...]
    minimizer: float
    min_ber: float
    refined: bool
    boundary: bool
    unimodal: bool
    min_ber_exact: float
    thresholds: tuple[float, ...]
    windows: tuple[int, ...]
    forward_rate: float

    @property
    def approx_exact_gap(self) -> float:
        if self.min_ber_exact == 0.0:
            return 0.0
        return abs(self.min_ber - self.min_ber_exact) / self.min_ber_exact


def golden_section(f, a: float, b: float, tol_fraction: float = 1e-4):
    """Deterministic golden-section minimization on [a, b].

    Stops once the bracket width falls below ``tol_fraction * (b - a)``;
    assumes a single local minimum inside the bracket.
    """
    if not b > a:
        raise InvalidParameterError("need b > a")
    tol = tol_fraction * (b - a)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def is_unimodal(values, atol: float = 0.0) -> bool:
    """True if the sequence decreases then increases (one sign change).

    Differences with magnitude at most ``atol`` count as flat and are
    ignored.
    """
    signs = []
    for a, b in zip(values, values[1:]):
        diff = b - a
        if abs(diff) <= atol:
            continue
        s = 1 if diff > 0 else -1
        if not signs or signs[-1] != s:
            signs.append(s)
    return signs in ([], [1], [-1], [-1, 1])


# ---------------------------------------------------------------------------
# threshold derivation
# ---------------------------------------------------------------------------

_ROOT_XTOL = 1e-9


def _invert_monotone(f, lo: float, hi_start: float) -> float:
    """Root of an increasing function, clamped to ``lo`` when already
    non-negative there (the equal-probability ladder saturates near the
    full-retransmission end of a sweep)."""
    if f(lo) >= 0.0:
        return lo
    hi = hi_start
    for _ in range(80):
        if f(hi) >= 0.0:
            return brentq(f, lo, hi, xtol=_ROOT_XTOL)
        hi = lo + 2.0 * (hi - lo)
    raise InvalidParameterError("failed to bracket the threshold root")


def equal_probability_thresholds(d: int, p: float, link: LinkModel) -> tuple[float, ...]:
    """Thresholds making every round retransmit the same expected fraction p.

    U_0 solves the fresh-band probability equation; each later U_j solves
    the round-(j+1) fraction equation given the earlier thresholds, so the
    expected window is N*p in every round.
    """
    if d < 1:
        raise InvalidParameterError("need d >= 1")
    if not 0.0 < p <= 1.0:
        raise InvalidParameterError("band probability must be in (0, 1]")
    if p >= 1.0 - 1e-12:
        return (math.inf,) * d
    snr = link.snr_per_symbol
    m = math.sqrt(2.0 * snr)
    us = [_invert_monotone(lambda u: _band_prob(m, 0.0, u) - p, 0.0, m + 4.0)]
    for j in range(1, d):
        prefix = tuple(us)

        def f(u, _prefix=prefix, _j=j):
            return _prob_retx(_j, snr, _prefix + (u,)) - p

        us.append(_invert_monotone(f, us[-1], us[-1] + m + 4.0))
    return tuple(us)


def _shared_threshold_fractions(d: int, u: float, snr: float) -> list[float]:
    """Expected retransmitted fraction of rounds 1..d under one shared threshold."""
    m = math.sqrt(2.0 * snr)
    return [
        _kernel_integral(lambda x, _i=i: _chi(_i, x, u, m), m, i, -u, u)
        for i in range(1, d + 1)
    ]


def fixed_threshold_windows(n: int, d: int, u: float, snr: float) -> tuple[int, ...]:
    """Per-round expected windows round(N * P_d) under one shared threshold."""
    return tuple(
        min(n, max(0, round_half_away(n * p))) for p in _shared_threshold_fractions(d, u, snr)
    )


def fixed_threshold_rate(d: int, u: float, base_snr: float) -> tuple[float, float]:
    """Forward rate and effective SNR under one shared threshold.

    The rate depends on the effective SNR through the round fractions and
    the effective SNR depends back on the rate; resolved by fixed-point
    iteration (converges in a handful of steps).
    """
    rate = 1.0
    for _ in range(200):
        total = sum(_shared_threshold_fractions(d, u, base_snr * rate))
        new_rate = 1.0 / (1.0 + total)
        if abs(new_rate - rate) < 1e-10:
            return new_rate, base_snr * new_rate
        rate = new_rate
    warnings.warn("fixed-threshold rate iteration did not fully converge")
    return rate, base_snr * rate


# ---------------------------------------------------------------------------
# strategy resolution
# ---------------------------------------------------------------------------


def threshold_u_max(snr: float) -> float:
    """Default top of the threshold sweep: the mean sample plus four noise std."""
    return math.sqrt(2.0 * snr) + 4.0


def sweep_grid(kind: str, points: int, n: int, d: int, u_max: float | None = None) -> list[float]:
    """The ``points`` parameter values swept for strategy ``kind``.

    Rates span (1/(1+d), n/(d+n)], window fractions (0, 1] and shared
    thresholds (0, u_max]; the open end is excluded.
    """
    if kind == "rate":
        lo, hi = 1.0 / (1.0 + d), n / (d + n)
        return [lo + (hi - lo) * (i + 1) / points for i in range(points)]
    if kind == "window":
        return [(i + 1) / points for i in range(points)]
    return [u_max * (i + 1) / points for i in range(points)]


def _window_fraction(kind: str, x: float, d: int) -> float:
    return min(1.0, (1.0 / x - 1.0) / d) if kind == "rate" else x


def resolve_strategy(
    kind: str, x: float, d: int, base_snr: float
) -> tuple[tuple[float, ...], float, float]:
    """(thresholds, forward rate, effective SNR) of one strategy parameter.

    ``x`` is a forward rate, a window fraction W/N or a shared threshold,
    as ``kind`` says.  The window fraction stays continuous; a caller that
    needs an integer window rounds it first.  Rate and window thresholds
    follow from the equal-probability inversion at the energy-equalized
    SNR.
    """
    if kind not in ("rate", "window", "threshold"):
        raise InvalidParameterError(f"unknown strategy {kind!r}")
    if kind == "threshold":
        rate, snr_eff = fixed_threshold_rate(d, x, base_snr)
        return (x,) * d, rate, snr_eff
    p = _window_fraction(kind, x, d)
    rate = x if kind == "rate" else 1.0 / (1.0 + d * p)
    snr_eff = base_snr * rate
    return equal_probability_thresholds(d, p, LinkModel(snr_eff)), rate, snr_eff


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _sweep(objective, grid_points) -> tuple[tuple, int, bool]:
    grid = tuple((x, objective(x)) for x in grid_points)
    bers = [b for _, b in grid]
    j = min(range(len(bers)), key=bers.__getitem__)
    atol = 1e-12 * max(bers)
    uni = is_unimodal(bers, atol)
    if not uni:
        warnings.warn(
            "sweep is not unimodal; falling back to the dense-grid argmin"
        )
    return grid, j, uni


def _refine(objective, grid, j: int, uni: bool):
    xs = [x for x, _ in grid]
    boundary = j in (0, len(xs) - 1)
    if boundary or not uni:
        return grid[j][0], grid[j][1], False, boundary
    x, fx = golden_section(objective, xs[j - 1], xs[j + 1])
    if fx <= grid[j][1]:
        return x, fx, True, False
    return grid[j][0], grid[j][1], False, False


def _optimize(
    kind: str, n: int, d: int, link: LinkModel, points: int, u_max: float | None = None
) -> SweepResult:
    """Sweep, refine and package one strategy (see :func:`sweep_grid` and
    :func:`resolve_strategy`)."""
    if d < 1:
        raise InvalidParameterError("need d >= 1")
    base = link.snr_per_symbol
    if kind == "threshold" and u_max is None:
        u_max = threshold_u_max(base)

    def objective(x: float) -> float:
        us, _, snr_eff = resolve_strategy(kind, x, d, base)
        return _ber_approx(snr_eff, us, DEFAULT_PRONY)

    grid, j, uni = _sweep(objective, sweep_grid(kind, points, n, d, u_max))
    minimizer, min_ber, refined, boundary = _refine(objective, grid, j, uni)

    us, rate, snr_eff = resolve_strategy(kind, minimizer, d, base)
    if kind == "threshold":
        windows = fixed_threshold_windows(n, d, minimizer, snr_eff)
    else:
        p = _window_fraction(kind, minimizer, d)
        windows = (min(n, max(1, round_half_away(n * p))),) * d
    return SweepResult(
        grid=grid,
        minimizer=minimizer,
        min_ber=min_ber,
        refined=refined,
        boundary=boundary,
        unimodal=uni,
        min_ber_exact=_ber_exact(snr_eff, us),
        thresholds=us,
        windows=windows,
        forward_rate=rate,
    )


def optimize_rate(n: int, d: int, link: LinkModel, points: int = 64) -> SweepResult:
    """Minimize BER over the forward rate in (1/(1+d), n/(d+n)].

    The swept rate fixes the per-round window fraction; thresholds follow
    from the equal-probability inversion at the energy-equalized SNR.
    """
    return _optimize("rate", n, d, link, points)


def optimize_window(n: int, d: int, link: LinkModel, points: int = 64) -> SweepResult:
    """Minimize BER over the normalized window size W/N in (0, 1]."""
    return _optimize("window", n, d, link, points)


def optimize_threshold(
    n: int, d: int, link: LinkModel, points: int = 64, u_max: float | None = None
) -> SweepResult:
    """Minimize BER over one shared reliability threshold in (0, u_max].

    Window sizes follow from the per-round band probabilities and feed the
    forward rate, which in turn scales the effective SNR; the circular
    dependence is resolved per candidate threshold.
    """
    return _optimize("threshold", n, d, link, points, u_max)
