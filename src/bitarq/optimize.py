"""BER-minimizing parameter search for the three retransmission strategies.

Each optimizer sweeps its strategy parameter on a deterministic grid,
refines the best cell by golden-section search, and reports the minimizer
together with an exact re-evaluation of the minimum (a guard against
optimizing artifacts of the closed-form objective).

Strategy resolution (threshold ladders, the shared-threshold rate) and the
objective accept NumPy arrays, so the whole grid is resolved and scored in
a few array calls, and golden-section refinement scores every probe its
next few steps could take in one array call.  Both rely on each element of
an array call equalling the scalar call bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .analytic import ber_approx, ber_exact, check_reals, retx_rung, shared_threshold_fractions
from .errors import InvalidParameterError, NumericFailureError
from .model import (STRATEGIES, LinkModel, check_integer, check_items, check_real, check_snr, check_type,
                    rate_range, round_half_away, window_rate, window_size)

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
    "resolve_strategy",
    "sweep_blocks",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-4
# Golden-section steps scored per objective call (2**4 - 1 = 15 probes).
# 3 (as 7 calls of 7 probes, one step more), 4 and 5 cost the same within
# noise on the design workload's optimizer calls; 4 divides the 20 steps.
_LOOKAHEAD = 4
# The fewest golden-section steps that shrink a bracket below _GOLDEN_TOL: 20
_GOLDEN_STEPS = math.ceil(math.log(_GOLDEN_TOL) / math.log(_GOLDEN))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one strategy sweep.

    ``grid`` holds (parameter, BER) pairs from the coarse sweep; the
    minimizer comes from golden-section refinement unless it sits on the
    search boundary.  ``min_ber_exact`` re-evaluates the minimum by
    the exact evaluator.  ``windows`` and ``forward_rate`` describe the protocol
    realized at the minimizer.  For the threshold strategy ``windows`` are the
    model's expected per-round counts floored at 0, not a runnable protocol (they
    may hold a 0, which :class:`bitarq.model.ProtocolConfig` rejects); the runnable one is
    :func:`bitarq.model.scheme_protocol`'s, which has no windows.
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


def _golden_step(a, b, c, d, left):
    """One golden-section step that keeps [a, d] (``left``) or [c, b]:
    the new (a, b, c, d) and ``left``, which says the new probe is c."""
    if left:
        b, d = d, c
        return a, b, b - _GOLDEN * (b - a), d, True
    a, c = c, d
    return a, b, c, a + _GOLDEN * (b - a), False


def golden_section(f, a: float, b: float):
    """Deterministic golden-section minimization on [a, b].

    ``f`` maps a 1-D array of abscissae to an array of values.  Takes
    ``_GOLDEN_STEPS`` = 20 steps, the fewest that shrink the bracket below
    1e-4 of ``b - a``; assumes a single local minimum inside the bracket.

    Each step only chooses between two known successors, so the probes of
    the next ``_LOOKAHEAD`` steps take 2**_LOOKAHEAD - 1 positions: one call
    of ``f`` scores them all, and the steps are then replayed with the plain
    sequential arithmetic and comparisons.  So the 20 steps cost 1 + 5
    calls of ``f``, on 2 and then 15 probes.  Every bracket, probe and the
    returned (x, f(x)) are those of the one-probe-per-call search, provided
    ``f`` values each element as it would alone.
    """
    if not callable(f):
        raise InvalidParameterError(f"f must be callable, got {f!r}")
    a, b = check_real("a", a, -math.inf, math.inf), check_real("b", b, a, math.inf)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(np.array([c, d]))
    for _ in range(_GOLDEN_STEPS // _LOOKAHEAD):
        # node i's successors are 2i+1 (left) and 2i+2 (right)
        tree = [_golden_step(a, b, c, d, fc < fd)]
        for i in range(2 ** (_LOOKAHEAD - 1) - 1):
            tree += [_golden_step(*tree[i][:4], left) for left in (True, False)]
        values = f(np.array([node[2] if node[4] else node[3] for node in tree]))
        i = 0
        for _ in range(_LOOKAHEAD):
            a, b, c, d, left = tree[i]
            fc, fd = (values[i], fc) if left else (fd, values[i])
            i = 2 * i + (1 if fc < fd else 2)
    x = c if fc < fd else d
    return x, min(fc, fd)


def is_unimodal(values, atol: float = 0.0) -> bool:
    """True if the sequence of reals decreases then increases (one sign change).

    Differences with magnitude at most ``atol`` count as flat and are
    ignored.
    """
    atol = check_real("atol", atol, 0.0, math.inf, "[]")
    values = check_items("values", values, lambda v: check_real("values", v, -math.inf, math.inf, "[]"))
    diffs = (b - a for a, b in zip(values, values[1:]))
    rising = [diff > 0 for diff in diffs if not abs(diff) <= atol]
    return rising == sorted(rising)


# ---------------------------------------------------------------------------
# threshold derivation
# ---------------------------------------------------------------------------

_ROOT_XTOL = 1e-12
_NEWTON_LAST = 1e-7
_ROOT_MAXITER = 100


def _find_root(f, a, b, fa, fb):
    """Elementwise root of ``f`` inside brackets [a, b] where fa and fb
    differ in sign (Chandrupatla's method: inverse quadratic interpolation
    safeguarded by bisection).  ``f(x, live)`` maps an array of abscissae
    to an array of the same shape, valued only where ``live`` is set."""
    x1, f1, x2, f2 = b, fb, a, fa
    t, root, found = 0.5, b, False
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAXITER):
            best = np.abs(f1) < np.abs(f2)
            xm, fm = np.where(best, x1, x2), np.where(best, f1, f2)
            dx = np.abs(x2 - x1)
            tol = 4.0 * np.finfo(float).eps * np.abs(xm) + _ROOT_XTOL
            # each element keeps its first converged estimate, whatever its neighbours do
            root = np.where(found, root, xm)
            found = found | (fm == 0.0) | (dx < tol)
            if np.all(found):
                return root
            tl = np.minimum(0.5 * tol / dx, 0.5)
            xt = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
            ft = f(xt, ~found)
            same = np.sign(ft) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xt, ft
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            t = np.where(
                (phi * phi < xi) & (np.square(1.0 - phi) < 1.0 - xi),
                f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
    raise NumericFailureError("root solve did not converge", float(np.max(np.abs(fm))))


def _invert_monotone(f, lo, hi):
    """Elementwise root of an increasing function above ``lo``, clamped to
    ``lo`` where it is already non-negative there (the equal-probability
    ladder saturates near the full-retransmission end of a sweep).

    ``f`` returns (value, slope).  ``hi`` moves away from ``lo`` until it
    brackets the root; Newton steps from ``lo`` that leave the bracket
    become bisections.
    """
    (f_lo, f_hi), (slope, _) = f(np.stack([lo, hi]))
    clamped = f_lo >= 0.0
    for _ in range(80):
        short = (f_hi < 0.0) & ~clamped
        if not short.any():
            break
        hi = np.where(short, lo + 2.0 * (hi - lo), hi)
        f_hi = f(hi)[0]
    else:
        raise InvalidParameterError("failed to bracket the threshold root")
    x, fx, a, b = lo, f_lo, lo, hi
    root, found = lo, False
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAXITER):
            newton = x - fx / slope
            inside = (newton >= a) & (newton <= b)
            new = np.where(clamped | (fx == 0.0), x, np.where(inside, newton, 0.5 * (a + b)))
            moved = np.abs(new - x)
            root = np.where(found, root, new)
            # a Newton step below _NEWTON_LAST leaves an error of the order of its square
            found = found | (moved <= 4.0 * np.finfo(float).eps * np.abs(x) + _ROOT_XTOL)
            found = found | (inside & (moved <= _NEWTON_LAST))
            if np.all(found):
                return root
            x = new
            fx, slope = f(x)
            a = np.where(fx < 0.0, x, a)
            b = np.where(fx < 0.0, b, x)
    raise NumericFailureError("threshold root solve did not converge", float(np.max(np.abs(fx))))


def _ladder_thresholds(d: int, p, snr) -> tuple:
    """Equal-probability ladders U_0..U_{d-1} for arrays of band
    probabilities ``p`` and SNRs ``snr`` (broadcast together)."""
    d = check_integer("d", d, 1)
    p, snr = np.broadcast_arrays(check_reals("p", p), check_reals("snr", snr))
    if not np.all((p > 0.0) & (p <= 1.0)):
        raise InvalidParameterError("band probability must be in (0, 1]")
    full = p >= 1.0 - 1e-12
    p = np.where(full, 0.5, p)  # solved and then discarded: the ladder is all inf
    m = np.sqrt(2.0 * snr)
    # P(|r0| <= u) lies below both P(r0 <= u) and P(|r0 - m| <= u); each
    # later rung lies above the one before
    lo = np.maximum(m + ndtri(p), ndtri(0.5 + 0.5 * p))
    us = ()
    for _ in range(d):

        def rung(u, _fraction=retx_rung(snr, us)):
            value, slope = _fraction(u)
            return value - p, slope

        us += (_invert_monotone(rung, lo, lo + m + 4.0),)
        lo = us[-1]
    return tuple(np.where(full, math.inf, u)[()] for u in us)


def equal_probability_thresholds(d: int, p: float, link: LinkModel) -> tuple[float, ...]:
    """Thresholds making every round retransmit the same expected fraction p.

    U_0 solves the fresh-band probability equation; each later U_j solves
    the round-(j+1) fraction equation given the earlier thresholds, so the
    expected window is N*p in every round.
    """
    p = check_real("p", p, 0.0, 1.0, "(]")
    link = check_type("link", link, LinkModel)
    return tuple(float(u) for u in _ladder_thresholds(d, p, link.awgn_snr()))


def fixed_threshold_windows(n: int, d: int, u: float, snr: float) -> tuple[int, ...]:
    """Per-round expected windows round(N * P_d) under one shared threshold."""
    n, u, snr = check_integer("n", n, 1), check_real("u", u, 0.0, math.inf, "[]"), check_snr("snr", snr)
    return tuple(
        min(n, max(0, round_half_away(n * p))) for p in shared_threshold_fractions(d, u, snr)
    )


def fixed_threshold_rate(d: int, u, base_snr: float):
    """Forward rate and effective SNR under one shared threshold.

    The rate r depends on the effective SNR through the round fractions and
    the effective SNR depends back on the rate: r = G(r) = 1 / (1 + sum of
    the fractions at base_snr * r), G increasing, with fixed points in
    [1/(1+d), 1].  Returns the one the plain iteration from r = 1 descends
    to, the largest.  After one plain step, secant steps on g(r) = r - G(r)
    descend instead: g is convex above the largest root when G bends down
    there, so they cannot pass it, and any r with g(r) <= 0 lies below it
    (iterating G from r climbs to a fixed point), so the first such r
    brackets it for a root solve.  A secant slope <= 0 means no root lies
    in that convex stretch; the single root left below is bracketed from
    1/(1+d).  ``u`` may be an array.
    """
    d, u, base_snr = check_integer("d", d, 1), check_reals("u", u), check_snr("base_snr", base_snr)
    floor = window_rate(d, 1.0)

    def residual(r, live=...):
        """g(r) where ``live`` (everywhere by default), 0 elsewhere."""
        g, r = np.zeros(np.shape(r)), r[live]
        fractions = shared_threshold_fractions(d, u[live], base_snr * r)
        total = np.minimum(fractions.sum(axis=-1), d)
        g[live] = r - 1.0 / (1.0 + total)
        return g

    hi = np.ones(np.shape(u))
    g_hi = residual(hi)
    prev, g_prev, lo, g_lo = hi, g_hi, hi, g_hi
    done = g_hi <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAXITER):
            if np.all(done):
                rate = _find_root(residual, lo, hi, g_lo, g_hi)[()]
                return rate, base_snr * rate
            slope = (g_prev - g_hi) / (prev - hi)  # nan on the first, plain step
            x = hi - g_hi / np.where(np.isnan(slope), 1.0, slope)
            x = np.where(slope <= 0.0, floor, np.maximum(x, floor))
            g_x = residual(x, ~done)
            stop = ~done & ((g_x <= 0.0) | (hi - x <= 4.0 * np.finfo(float).eps + _ROOT_XTOL))
            lo, g_lo = np.where(stop, x, lo), np.where(stop, g_x, g_lo)
            down = ~done & ~stop
            prev, g_prev = np.where(down, hi, prev), np.where(down, g_hi, g_prev)
            hi, g_hi = np.where(down, x, hi), np.where(down, g_x, g_hi)
            done = done | stop
    raise NumericFailureError("no shared-threshold rate brackets in [1/(1+d), 1]", float(np.max(g_hi)))


# ---------------------------------------------------------------------------
# strategy resolution
# ---------------------------------------------------------------------------


# Grid points resolved and scored per array call; bounds the memory of
# long sweeps (about 20 KB per point).
_SWEEP_BLOCK = 512


def threshold_u_max(snr: float) -> float:
    """Default top of the threshold sweep: the mean sample plus four noise std."""
    return math.sqrt(2.0 * check_snr("snr", snr)) + 4.0


def resolve_strategy(kind: str, x, d: int, base_snr: float) -> tuple:
    """(thresholds, forward rate, effective SNR) of strategy parameter(s) x.

    ``x`` is a forward rate above 1/(1 + d), a window fraction W/N or a shared
    threshold, as ``kind`` says; a scalar or an array, which the results follow
    elementwise.  The window fraction stays continuous (:func:`bitarq.model.scheme_protocol`
    rounds it to an integer window).  Rate and window thresholds follow
    from the equal-probability inversion at the energy-equalized SNR.
    """
    if kind not in STRATEGIES:
        raise InvalidParameterError(f"unknown strategy {kind!r}")
    d, x, base_snr = check_integer("d", d, 1), check_reals(kind, x)[()], check_snr("base_snr", base_snr)
    if kind == "rate" and not np.all(x > window_rate(d, 1.0)):  # as in window_size
        raise InvalidParameterError(f"forward rate must be above 1/(1 + d) = 1/{1 + d}, the full-retransmission rate")
    if kind == "threshold":
        rate, snr_eff = fixed_threshold_rate(d, x, base_snr)
        return (x,) * d, rate, snr_eff
    p = (1.0 / x - 1.0) / d if kind == "rate" else x
    rate = x if kind == "rate" else window_rate(d, p)
    snr_eff = base_snr * rate
    return _ladder_thresholds(d, p, snr_eff), rate, snr_eff


def sweep_blocks(kind: str, points: int, n: int, d: int, base_snr: float, u_max=None):
    """Resolve the ``points`` parameter values swept for strategy ``kind``.

    The values are lo + (hi - lo)(i + 1)/points, i < points, over (lo, hi]:
    (1/(1+d), n/(d+n)] for rates, (0, 1] for window fractions and (0, u_max]
    for shared thresholds, u_max defaulting to :func:`threshold_u_max`.
    Yields (values, thresholds, forward rates, effective SNRs) per block of
    at most _SWEEP_BLOCK values, the last three as arrays.
    """
    points = check_integer("points", points, 1)
    n, d = check_integer("n", n, 1), check_integer("d", d, 1)
    u_max = None if u_max is None else check_real("u_max", u_max, 0.0, math.inf)
    if kind == "rate":
        lo, hi = rate_range(n, d)
    elif kind == "window":
        lo, hi = 0.0, 1.0
    else:
        lo, hi = 0.0, threshold_u_max(base_snr) if u_max is None else u_max
    xs = [lo + (hi - lo) * (i + 1) / points for i in range(points)]
    for start in range(0, len(xs), _SWEEP_BLOCK):
        block = xs[start:start + _SWEEP_BLOCK]
        yield (block, *resolve_strategy(kind, np.array(block), d, base_snr))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _sweep(blocks) -> tuple[tuple, int, bool]:
    grid = tuple(
        (x, float(b)) for xs, us, _, snr in blocks for x, b in zip(xs, ber_approx(snr, us))
    )
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


def _optimize(kind: str, n: int, d: int, link: LinkModel, points: int) -> SweepResult:
    """Sweep, refine and package one strategy (see :func:`sweep_blocks` and
    :func:`resolve_strategy`)."""
    link = check_type("link", link, LinkModel)
    base = link.awgn_snr()
    # (values, thresholds, rates, SNRs) of every grid block and probe
    resolved = list(sweep_blocks(kind, points, n, d, base))

    def objective(x):
        us, rate, snr_eff = resolve_strategy(kind, x, d, base)
        resolved.append((x, us, rate, snr_eff))
        return ber_approx(snr_eff, us)

    grid, j, uni = _sweep(resolved)
    minimizer, min_ber, refined, boundary = _refine(objective, grid, j, uni)

    # the block or probe that scored the minimizer resolved it as a scalar call would
    xs, us, rate, snr_eff = next(r for r in resolved if minimizer in r[0])
    i = list(xs).index(minimizer)
    us, rate, snr_eff = tuple(float(u[i]) for u in us), float(rate[i]), float(snr_eff[i])
    if kind == "threshold":
        windows = fixed_threshold_windows(n, d, minimizer, snr_eff)
    else:
        windows = (window_size(kind, minimizer, n, d),) * d
    return SweepResult(
        grid=grid,
        minimizer=minimizer,
        min_ber=float(min_ber),
        refined=refined,
        boundary=boundary,
        unimodal=uni,
        min_ber_exact=float(ber_exact(snr_eff, us)),
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


def optimize_threshold(n: int, d: int, link: LinkModel, points: int = 64) -> SweepResult:
    """Minimize BER over one shared reliability threshold in (0, u_max], with
    u_max = :func:`threshold_u_max` of the link SNR.

    Window sizes follow from the per-round band probabilities and feed the
    forward rate, which in turn scales the effective SNR; the circular
    dependence is resolved per candidate threshold.
    """
    return _optimize("threshold", n, d, link, points)
