import dataclasses
import hashlib
import math

import numpy as np
import pytest

from bitarq import InvalidParameterError, LinkModel, ProtocolConfig, prob_retx_band, q_function
from bitarq.analytic import (_band_prob, _ber_approx, _ber_exact, _retx_fraction,
    _shared_threshold_fractions, DEFAULT_PRONY)
from bitarq.optimize import (
    _GOLDEN,
    _GOLDEN_TOL,
    _LOOKAHEAD,
    equal_probability_thresholds,
    fixed_threshold_rate,
    fixed_threshold_windows,
    golden_section,
    is_unimodal,
    optimize_rate,
    optimize_threshold,
    optimize_window,
    resolve_strategy,
)

LINK5 = LinkModel(10**0.5)
RUNNERS = {"rate": optimize_rate, "window": optimize_window, "threshold": optimize_threshold}


def sequential_golden_section(f, a, b):
    """The one-probe-per-call golden-section search that ``golden_section``
    must reproduce exactly; ``f`` takes a scalar."""
    tol = _GOLDEN_TOL * (b - a)
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


def assert_same_search(f, a, b, scalar_f=None):
    """Look-ahead and sequential search agree under ``==`` on (x, f(x)),
    and the look-ahead search makes at most half as many calls of ``f``.
    The sequential search calls ``scalar_f``, by default ``f`` on a
    one-element array."""
    calls = []

    def counted(xs):
        calls.append(len(xs))
        return f(xs)

    sequential_calls = []

    def scalar(x):
        sequential_calls.append(x)
        return scalar_f(x) if scalar_f else f(np.array([x]))[0]

    x, fx = golden_section(counted, a, b)
    x_ref, fx_ref = sequential_golden_section(scalar, a, b)
    assert x == x_ref
    assert fx == fx_ref or (math.isnan(fx) and math.isnan(fx_ref))
    assert max(calls) <= 2**_LOOKAHEAD - 1
    assert 2 * len(calls) <= len(sequential_calls) - 1
    return x, fx


def strategy_objective(kind, d, base):
    def objective(x):
        us, _, snr_eff = resolve_strategy(kind, x, d, base)
        return _ber_approx(snr_eff, us)

    return objective


class TestGoldenSection:
    def test_quadratic(self):
        x, fx = assert_same_search(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-4)
        assert fx == pytest.approx(1.0, abs=1e-8)

    def test_stopping_width_scales_with_interval(self):
        x, _ = assert_same_search(lambda x: (x - 30.0) ** 2, 0.0, 100.0)
        assert x == pytest.approx(30.0, abs=100.0 * 1e-4)

    def test_constant_ties_every_comparison(self):
        x, fx = assert_same_search(lambda x: np.full(np.shape(x), 2.0), 0.0, 1.0)
        assert fx == 2.0 and 0.999 < x <= 1.0  # every tie keeps the right part

    def test_nan_values(self):
        _, fx = assert_same_search(lambda x: np.full(np.shape(x), math.nan), -1.0, 3.0)
        assert math.isnan(fx)

    def test_rejects_an_empty_bracket(self):
        with pytest.raises(InvalidParameterError):
            golden_section(lambda x: x, 1.0, 1.0)

    @pytest.mark.parametrize("kind", ["rate", "window", "threshold"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strategy_objectives_match_the_sequential_search(self, kind, d):
        # the bracket the optimizer refines: the grid neighbours of the best cell
        res = RUNNERS[kind](1024, d, LINK5, points=64)
        xs = [x for x, _ in res.grid]
        j = min(range(len(xs)), key=lambda i: res.grid[i][1])
        objective = strategy_objective(kind, d, LINK5.snr_per_symbol)
        x, fx = assert_same_search(objective, xs[j - 1], xs[j + 1], scalar_f=objective)
        assert res.refined and (res.minimizer, res.min_ber) == (x, fx)


class TestArrayCallsMatchScalarCalls:
    # golden_section's look-ahead relies on this: each element of an array
    # call is resolved and scored exactly as it would be alone
    @pytest.mark.parametrize("kind", ["rate", "window", "threshold"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("db", [0.0, 5.0, 10.0])
    @pytest.mark.parametrize("size", [7, 2**_LOOKAHEAD - 1])
    def test_bit_for_bit(self, kind, d, db, size):
        base = LinkModel(10.0 ** (db / 10.0)).snr_per_symbol
        lo, hi = {"rate": (1.0 / (1.0 + d), 1024 / (1024 + d)), "window": (0.0, 1.0),
                  "threshold": (0.0, math.sqrt(2.0 * base) + 4.0)}[kind]
        xs = lo + (hi - lo) * np.linspace(0.02, 1.0, size) ** 1.5
        us, rate, snr_eff = resolve_strategy(kind, xs, d, base)
        bers = _ber_approx(snr_eff, us)
        for i, x in enumerate(xs):
            us_i, rate_i, snr_i = resolve_strategy(kind, float(x), d, base)
            assert [float(u[i]) for u in us] == [float(u) for u in us_i]
            assert (rate[i], snr_eff[i]) == (rate_i, snr_i)
            assert bers[i] == _ber_approx(snr_i, us_i)


# optimize_* at 5 dB, n = 1024, 64 points, recorded before golden_section
# scored probes in batches: sha256 of the grid's repr, and the repr of the
# rest of the result
PINNED_AT_5DB = {
    ("rate", 1): (
        "7b73d9ef0877dc29d16f844b1383eed6116c1605541e795cd03205004013eede",
        'SweepResult(grid=(), minimizer=0.9005211227470951, min_ber=0.0005163337195878235, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.000517055656900897, '
        'thresholds=(1.1634811048168363,), windows=(113,), '
        'forward_rate=0.9005211227470951)'
    ),
    ("rate", 2): (
        "589bb65c367f7478308bc7deaa1fdfcd3036ed34766836418dec0ac945ecc762",
        'SweepResult(grid=(), minimizer=0.8049744802041265, min_ber=0.0002385823527724369, '
        'refined=True, boundary=False, unimodal=True, '
        'min_ber_exact=0.00023727773884878764, thresholds=(1.089067084124349, '
        '1.3699050313364494), windows=(124, 124), forward_rate=0.8049744802041265)'
    ),
    ("rate", 3): (
        "9f5088461cfb96613d39fac60b3966246b002ae6d857702ebf06869414ff84e4",
        'SweepResult(grid=(), minimizer=0.7860068276690418, min_ber=0.0002098149219772765, '
        'refined=True, boundary=False, unimodal=True, '
        'min_ber_exact=0.00020849939460257873, thresholds=(0.8988213647375521, '
        '1.1814242860574553, 1.3683752305999346), windows=(93, 93, 93), '
        'forward_rate=0.7860068276690418)'
    ),
    ("window", 1): (
        "f40eb7a289749077401a90b3644589d015152a6247b15cdb41677064d4e62d87",
        'SweepResult(grid=(), minimizer=0.11046817164807105, min_ber=0.000516333719587834, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.0005170556562558898, '
        'thresholds=(1.1634813137607425,), windows=(113,), '
        'forward_rate=0.9005210824871074)'
    ),
    ("window", 2): (
        "666d333808716a3a4160bf317de2645166bb0558bb5fd963822feee0f33872fa",
        'SweepResult(grid=(), minimizer=0.12113769362367695, '
        'min_ber=0.00023858235277244124, refined=True, boundary=False, unimodal=True, '
        'min_ber_exact=0.00023727773886765547, thresholds=(1.0890670532689966, '
        '1.3699050017240135), windows=(124, 124), forward_rate=0.8049744929872674)'
    ),
    ("window", 3): (
        "1e8228bb3b578517e4af284bd6932fb59d44c14e2c5d5883c4714e149ac559b1",
        'SweepResult(grid=(), minimizer=0.09075082004022435, '
        'min_ber=0.00020981492197880416, refined=True, boundary=False, unimodal=True, '
        'min_ber_exact=0.00020849939743083698, thresholds=(0.8988200837447355, '
        '1.1814230198029112, 1.3683740358150571), windows=(93, 93, 93), '
        'forward_rate=0.7860075192192201)'
    ),
    ("threshold", 1): (
        "3b7d64ad580f09b0c2f6f0c62dae2fae8df2402fc39e63c264ab085fdd69565d",
        'SweepResult(grid=(), minimizer=1.3533082343065712, min_ber=0.0002887356673369344, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.00028880900101147, '
        'thresholds=(1.3533082343065712,), windows=(38,), '
        'forward_rate=0.9640301650005338)'
    ),
    ("threshold", 2): (
        "959c985acef4f2febaeb45334afd62aaf5e5c691ba175c9889b64d2372b6bab9",
        'SweepResult(grid=(), minimizer=1.530206603251172, min_ber=6.56966602423926e-05, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=6.569579464033685e-05, '
        'thresholds=(1.530206603251172, 1.530206603251172), windows=(80, 46), '
        'forward_rate=0.8908376009214872)'
    ),
    ("threshold", 3): (
        "da92ed96a18ba8089d0935327f869837e56f5c43a91ab6764556100f3a94c51a",
        'SweepResult(grid=(), minimizer=1.510869457233784, min_ber=6.0787102415171266e-05, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=6.07879064326794e-05, '
        'thresholds=(1.510869457233784, 1.510869457233784, 1.510869457233784), '
        'windows=(83, 48, 30), forward_rate=0.8639495528518651)'
    ),
}


@pytest.mark.parametrize("kind,d", sorted(PINNED_AT_5DB))
def test_optimizer_results_are_pinned(kind, d):
    res = RUNNERS[kind](1024, d, LINK5, points=64)
    grid_sha, rest = PINNED_AT_5DB[kind, d]
    assert hashlib.sha256(repr(res.grid).encode()).hexdigest() == grid_sha
    assert repr(dataclasses.replace(res, grid=())) == rest


class TestUnimodal:
    def test_patterns(self):
        assert is_unimodal([5, 3, 2, 4, 9])
        assert is_unimodal([5, 4, 3])
        assert is_unimodal([1, 2, 3])
        assert not is_unimodal([5, 3, 4, 2])

    def test_tolerance_ignores_jitter(self):
        assert is_unimodal([5.0, 3.0, 3.0 + 1e-15, 2.0, 4.0], atol=1e-12)


class TestThresholdInversion:
    def test_residuals(self):
        for p in (0.1, 0.3, 0.6):
            us = equal_probability_thresholds(3, p, LINK5)
            snr = LINK5.snr_per_symbol
            m = math.sqrt(2 * snr)
            assert _band_prob(m, 0.0, us[0]) == pytest.approx(p, abs=1e-8)
            for j in (1, 2):
                assert _retx_fraction(j, snr, us[: j + 1])[0] == pytest.approx(p, abs=1e-8)

    def test_thresholds_nondecreasing(self):
        us = equal_probability_thresholds(3, 0.25, LINK5)
        assert all(a <= b for a, b in zip(us, us[1:]))

    def test_degenerate_probabilities(self):
        assert equal_probability_thresholds(2, 1.0, LINK5) == (math.inf, math.inf)
        with pytest.raises(InvalidParameterError):
            equal_probability_thresholds(2, 0.0, LINK5)


class TestFixedThresholdWindows:
    def test_windows_shrink_with_rounds(self):
        # reliabilities only improve with combining at a sub-mean threshold
        u = 0.8 * math.sqrt(2 * LINK5.snr_per_symbol)
        ws = fixed_threshold_windows(1024, 3, u, LINK5.snr_per_symbol)
        assert all(a >= b for a, b in zip(ws, ws[1:]))

    def test_zero_threshold(self):
        assert fixed_threshold_windows(1024, 2, 0.0, 1.0) == (0, 0)


class TestResolveStrategy:
    def test_rate_and_window_resolve_alike(self):
        # rate 1/(1 + d p) and window fraction p name the same protocol
        d, p = 2, 0.25
        us_w, rate_w, snr_w = resolve_strategy("window", p, d, 3.0)
        us_r, rate_r, snr_r = resolve_strategy("rate", 1.0 / (1.0 + d * p), d, 3.0)
        assert rate_w == pytest.approx(rate_r, rel=1e-12)
        assert snr_w == pytest.approx(snr_r, rel=1e-12)
        assert us_w == pytest.approx(us_r, rel=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            resolve_strategy("power", 0.5, 1, 3.0)

    @pytest.mark.parametrize(
        "rate", [0.0, -0.0, math.nan, np.array([0.6, 0.0]), np.array([0.7, -0.2])]
    )
    def test_rejects_a_rate_that_is_not_positive(self, rate):
        # a zero rate divided by zero: ZeroDivisionError for a float, a silent
        # full-retransmission ladder (and a RuntimeWarning) for an array
        with pytest.raises(InvalidParameterError):
            resolve_strategy("rate", rate, 1, 1.0)


class TestOptimizers:
    @pytest.mark.parametrize("runner", [optimize_rate, optimize_window, optimize_threshold])
    def test_rejects_an_empty_grid(self, runner):
        with pytest.raises(InvalidParameterError):
            runner(16, 1, LinkModel(1.0), points=0)

    def test_rate_minimum_dominates_endpoints(self):
        res = optimize_rate(1024, 1, LINK5, points=32)
        bers = [b for _, b in res.grid]
        assert res.min_ber <= bers[0] and res.min_ber <= bers[-1]
        assert res.unimodal and res.refined and not res.boundary

    def test_rate_dominates_random_feasible_points(self):
        res = optimize_rate(1024, 2, LINK5, points=32)
        rng = np.random.default_rng(7)
        lo, hi = 1 / 3, 1024 / 1026
        for rate in rng.uniform(lo + 1e-6, hi, size=11):
            p = min(1.0, (1 / rate - 1) / 2)
            snr_eff = LINK5.snr_per_symbol * rate
            us = equal_probability_thresholds(2, p, LinkModel(snr_eff))
            assert res.min_ber <= _ber_approx(snr_eff, us, DEFAULT_PRONY) + 1e-15

    def test_window_boundary_equals_repetition(self):
        res = optimize_window(1024, 2, LINK5, points=16)
        full = [b for x, b in res.grid if x == pytest.approx(1.0)]
        snr_eff = LINK5.snr_per_symbol / 3
        brc = float(q_function(math.sqrt(2 * 3 * snr_eff)))
        assert full[0] == pytest.approx(brc, rel=1e-9)

    def test_approx_and_exact_agree_at_minimum(self):
        for runner in (optimize_rate, optimize_window, optimize_threshold):
            res = runner(1024, 2, LINK5, points=24)
            assert abs(res.min_ber - res.min_ber_exact) / res.min_ber_exact < 0.15

    def test_threshold_result_reports_protocol(self):
        res = optimize_threshold(1024, 2, LINK5, points=24)
        assert len(res.windows) == 2
        assert 0 < res.forward_rate <= 1
        assert res.thresholds == (res.minimizer,) * 2

    def test_rate_and_window_sweeps_match(self):
        # the two strategies parameterize the same family
        r = optimize_rate(1024, 1, LINK5, points=48)
        w = optimize_window(1024, 1, LINK5, points=48)
        assert r.min_ber == pytest.approx(w.min_ber, rel=5e-3)
        assert r.minimizer == pytest.approx(1 / (1 + w.minimizer), rel=5e-3)


class TestTrends:
    @pytest.mark.parametrize("d", [1, 2])
    def test_proposition_trends(self, d):
        links = [LinkModel(10 ** (db / 10)) for db in (0.0, 2.5, 5.0, 7.5)]
        rates = [optimize_rate(1024, d, lk, points=32).minimizer for lk in links]
        windows = [optimize_window(1024, d, lk, points=32).minimizer for lk in links]
        thresholds = [optimize_threshold(1024, d, lk, points=32).minimizer for lk in links]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(a > b for a, b in zip(windows, windows[1:]))
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


class TestFixedThresholdRate:
    def test_slow_fixed_point_is_solved(self, recwarn):
        # the plain iteration from r = 1 crawls past a near-tangency here and
        # stopped at 0.76627 after 200 steps; the only root in (1/3, 1] is 0.48350
        d, u, base = 2, 3.4476, 10**1.00275
        rate, snr_eff = fixed_threshold_rate(d, u, base)
        fractions = _shared_threshold_fractions(d, u, base * rate)
        assert abs(rate - 1.0 / (1.0 + fractions.sum())) <= 1e-12
        assert rate == pytest.approx(0.48350, abs=1e-5)
        assert snr_eff == pytest.approx(base * rate, rel=1e-15)
        assert len(recwarn) == 0

    def test_largest_of_three_fixed_points(self, recwarn):
        # roots near 0.48, 0.761 and 0.781: the plain iteration from r = 1
        # creeps down onto 0.781 (200 steps leave a residual of 7.6e-6)
        d, u, base = 2, 3.44794419, 10**1.00293
        rate, _ = fixed_threshold_rate(d, u, base)
        fractions = _shared_threshold_fractions(d, u, base * rate)
        assert abs(rate - 1.0 / (1.0 + fractions.sum())) <= 1e-12
        assert rate == pytest.approx(0.78050, abs=1e-5)
        assert len(recwarn) == 0

    def test_array_matches_scalar(self):
        us = np.array([0.3, 1.2, 2.5, 4.0])
        rates, _ = fixed_threshold_rate(3, us, 3.0)
        for u, r in zip(us, rates):
            assert fixed_threshold_rate(3, float(u), 3.0)[0] == pytest.approx(r, abs=1e-12)

    def test_zero_threshold_retransmits_nothing(self):
        assert fixed_threshold_rate(2, 0.0, 3.0) == (1.0, 3.0)


def test_no_adaptive_quadrature_behind_the_design_path(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for d in (1, 2, 3):
        for runner in (optimize_rate, optimize_window, optimize_threshold):
            runner(256, d, LINK5, points=8)
    snr = LINK5.snr_per_symbol
    _ber_exact(snr, (0.5, 1.0, 1.5))
    cfg = ProtocolConfig(100, 2, thresholds=(0.5, 1.0))
    prob_retx_band(1, cfg, LINK5)
    prob_retx_band(2, cfg, LINK5)
    fixed_threshold_windows(1024, 3, 1.0, snr)
