import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bitarq import (ConfigurationError, InvalidParameterError, LinkModel, SlowChiSquareFading,
                    q_function)
from bitarq.analytic import (ber_approx, ber_exact, retx_rung,
    shared_threshold_fractions, DEFAULT_PRONY)
from bitarq.model import SCHEMES, ProtocolConfig, scheme_protocol
from bitarq.optimize import (
    _GOLDEN,
    _GOLDEN_STEPS,
    _GOLDEN_TOL,
    _LOOKAHEAD,
    _invert_monotone,
    _ladder_thresholds,
    _refine,
    equal_probability_thresholds,
    fixed_threshold_rate,
    fixed_threshold_windows,
    golden_section,
    is_unimodal,
    optimize_rate,
    optimize_threshold,
    optimize_window,
    resolve_strategy,
    sweep_blocks,
    threshold_u_max,
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
        return ber_approx(snr_eff, us)

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

    def test_step_count_is_derived_from_the_tolerance(self):
        # the fewest steps that shrink the bracket below _GOLDEN_TOL, in whole
        # look-ahead rounds
        assert _GOLDEN_STEPS == 20
        assert _GOLDEN**_GOLDEN_STEPS <= _GOLDEN_TOL < _GOLDEN ** (_GOLDEN_STEPS - 1)
        assert _GOLDEN_STEPS % _LOOKAHEAD == 0

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 1.0 + 1e-12), (1.0, 1.0 + 1e-13),
                                      (-3e-300, 5e-300), (1e300, 1.5e300)])
    def test_every_search_makes_the_same_calls(self, a, b):
        # a stop on the rounded bracket width could call f without end on a
        # bracket narrower than about 2e-12 of its magnitude, such as [1, 1 + 1e-12]
        calls = []

        def f(xs):
            calls.append(len(xs))
            assert len(calls) <= 1 + _GOLDEN_STEPS // _LOOKAHEAD, "the search does not stop"
            return np.abs(xs - (a + 0.3 * (b - a)))

        x, fx = golden_section(f, a, b)
        assert calls == [2] + [2**_LOOKAHEAD - 1] * (_GOLDEN_STEPS // _LOOKAHEAD)
        assert a <= x <= b and fx == abs(x - (a + 0.3 * (b - a)))

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
        bers = ber_approx(snr_eff, us)
        for i, x in enumerate(xs):
            us_i, rate_i, snr_i = resolve_strategy(kind, float(x), d, base)
            assert [float(u[i]) for u in us] == [float(u) for u in us_i]
            assert (rate[i], snr_eff[i]) == (rate_i, snr_i)
            assert bers[i] == ber_approx(snr_i, us_i)


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


# the same pins at 0 and 10 dB, recorded before the ladder and rate solvers
# built each rung's fixed parts once and valued only unsettled elements;
# 10 dB window d = 1 stops on the grid boundary
PINNED_AT_0DB = {
    ("rate", 1): (
        "1724e802527914c9b080fcb4b0ab530beede3223136be52a909fa4aca4284b5c",
        'SweepResult(grid=(), minimizer=0.7661146979886259, min_ber=0.04916957041843488, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.04839963094144156, '
        'thresholds=(0.788638512544508,), windows=(313,), forward_rate=0.7661146979886259)'
    ),
    ("rate", 2): (
        "4aa6387e50e1a33d68abeb2e3b6dd466984c9d91d48b92c00ea215d6ac9a32f2",
        'SweepResult(grid=(), minimizer=0.6947498988036506, min_ber=0.042117128774007334, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.04335214911675997, '
        'thresholds=(0.5424621755487231, 0.759399760753348), windows=(225, 225), '
        'forward_rate=0.6947498988036506)'
    ),
    ("rate", 3): (
        "48b9f30c25eec4b39725006b5cf6e2fe7c7b645d3bae478217ecfe6508b3e41f",
        'SweepResult(grid=(), minimizer=0.6737881473808224, min_ber=0.039995311384788734, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.04170462731967292, '
        'thresholds=(0.39349047646964685, 0.5936347294530503, 0.7115835520597847), '
        'windows=(165, 165, 165), forward_rate=0.6737881473808224)'
    ),
    ("threshold", 1): (
        "d3e745d8988621b7ed5e6e4de7906c7ae110b6192410d946a5591c210d280282",
        'SweepResult(grid=(), minimizer=0.7954076287778554, min_ber=0.038510081394704236, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.03802321226219273, '
        'thresholds=(0.7954076287778554,), windows=(146,), forward_rate=0.8753406345711523)'
    ),
    ("threshold", 2): (
        "7f316e7317f34c5a1d41a6b7e494d41411ecee545978aab3aa911310d22eec47",
        'SweepResult(grid=(), minimizer=0.7544515918709429, min_ber=0.030528300825823532, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.030459292011177027, '
        'thresholds=(0.7544515918709429, 0.7544515918709429), windows=(147, 107), '
        'forward_rate=0.8011059466881619)'
    ),
    ("threshold", 3): (
        "88907c5effe63c61c114a1ff42e57ac0d4ef88835fd4d74653c5778b9caf8d94",
        'SweepResult(grid=(), minimizer=0.7000714980157089, min_ber=0.029646786210398623, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.029620204341440068, '
        'thresholds=(0.7000714980157089, 0.7000714980157089, 0.7000714980157089), '
        'windows=(133, 95, 72), forward_rate=0.7732187962765963)'
    ),
    ("window", 1): (
        "3a646e5e0c5579c01f8163584a88ff8906a3ead76d2dd8e3fe11118f3f0537a9",
        'SweepResult(grid=(), minimizer=0.30528801958276314, min_ber=0.04916957041845027, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.04839963403802779, '
        'thresholds=(0.7886394236487081,), windows=(313,), forward_rate=0.7661144398763816)'
    ),
    ("window", 2): (
        "a3268ae1a7565c087371d016542bf133160e9c08b8eed89a68691fb8ae5428be",
        'SweepResult(grid=(), minimizer=0.21968328551324803, min_ber=0.04211712877400747, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.04335214954818972, '
        'thresholds=(0.5424618680120531, 0.7593994507243774), windows=(225, 225), '
        'forward_rate=0.6947500519529517)'
    ),
    ("window", 3): (
        "dd4b8797904ef106fb456308b8cacbe6da9fb8b0333b30563bfde76eec9efdb8",
        'SweepResult(grid=(), minimizer=0.16138222787764342, min_ber=0.039995311384780796, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=0.04170462643382025, '
        'thresholds=(0.3934908941977872, 0.5936351958337367, 0.7115839963524434), '
        'windows=(165, 165, 165), forward_rate=0.6737878479451747)'
    ),
}

PINNED_AT_10DB = {
    ("rate", 1): (
        "ba87dcba04456ed464e02d269e7d596be96061436f70b29a1906d2f318ee737c",
        'SweepResult(grid=(), minimizer=0.9883841774581318, min_ber=1.7779847915144687e-10, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=1.7779347563129885e-10, '
        'thresholds=(2.180955797610495,), windows=(12,), forward_rate=0.9883841774581318)'
    ),
    ("rate", 2): (
        "519f3f1a37d81b87a9d3ca70b565467d3d8d4b43ff8786ee56e4bbea3133feb5",
        'SweepResult(grid=(), minimizer=0.9068685489800166, min_ber=6.616029102725486e-13, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=6.58098689930251e-13, '
        'thresholds=(2.6268759442620144, 2.9107824833579534), windows=(53, 53), '
        'forward_rate=0.9068685489800166)'
    ),
    ("rate", 3): (
        "f42dbf5bbe4cf1ebbedc6c3be0678d08553ad7163da98d41113a5135b4628a31",
        'SweepResult(grid=(), minimizer=0.8924663968371498, min_ber=4.803921747104576e-13, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=4.775852905481528e-13, '
        'thresholds=(2.4760540984054873, 2.75743821421865, 2.94878489506677), windows=(41, '
        '41, 41), forward_rate=0.8924663968371498)'
    ),
    ("threshold", 1): (
        "513c0c819e189f4ca35e3e36524bf747b7614cd072d676b2cf3f74b2981698b5",
        'SweepResult(grid=(), minimizer=2.4466199038703014, min_ber=1.3260537142607457e-10, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=1.3260623805410654e-10, '
        'thresholds=(2.4466199038703014,), windows=(1,), forward_rate=0.9987116996104111)'
    ),
    ("threshold", 2): (
        "2c9e7074bae2f3f2c09e660360c3e7472d82c2e941ba5cae63a243a631679e55",
        'SweepResult(grid=(), minimizer=3.185147874443773, min_ber=3.4218849379349114e-14, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=3.4218915462637605e-14, '
        'thresholds=(3.185147874443773, 3.185147874443773), windows=(30, 12), '
        'forward_rate=0.9611658241334795)'
    ),
    ("threshold", 3): (
        "04879fd953e82ccc54ce474a6c45a5d013e913109ca38edff31a8f51c55f834f",
        'SweepResult(grid=(), minimizer=3.2520339314498523, min_ber=1.8482416479939726e-14, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=1.848241649833615e-14, '
        'thresholds=(3.2520339314498523, 3.2520339314498523, 3.2520339314498523), '
        'windows=(44, 20, 10), forward_rate=0.932790254040738)'
    ),
    ("window", 1): (
        "19e1905fe0e1dcb2b2435b3425b6e99db9e30c310d3060670d643e2f00cfc784",
        'SweepResult(grid=(), minimizer=0.015625, min_ber=1.8273922188518318e-10, '
        'refined=False, boundary=True, unimodal=True, min_ber_exact=1.8273806465717142e-10, '
        'thresholds=(2.2837268759699367,), windows=(16,), forward_rate=0.9846153846153847)'
    ),
    ("window", 2): (
        "f1407753869495bcad7627980738b942aa54ad2c23d25abbf32d4f4cc1cb5755",
        'SweepResult(grid=(), minimizer=0.05134792912002371, min_ber=6.616029102720213e-13, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=6.580986788308532e-13, '
        'thresholds=(2.6268765431866576, 2.910783099107435), windows=(53, 53), '
        'forward_rate=0.9068683740193287)'
    ),
    ("window", 3): (
        "d80f8e7b8d42d022e0f51719f449a3ec17b415841e27f507855ccb654cb62b87",
        'SweepResult(grid=(), minimizer=0.04016370896646633, min_ber=4.803921747242982e-13, '
        'refined=True, boundary=False, unimodal=True, min_ber_exact=4.775852667528533e-13, '
        'thresholds=(2.4760555966331075, 2.7574397897167136, 2.9487865249958363), '
        'windows=(41, 41, 41), forward_rate=0.8924657911099934)'
    ),
}


@pytest.mark.parametrize("db,kind,d", [(0, *key) for key in sorted(PINNED_AT_0DB)]
                         + [(10, *key) for key in sorted(PINNED_AT_10DB)])
def test_optimizer_results_are_pinned_at_0_and_10_db(db, kind, d):
    res = RUNNERS[kind](1024, d, LinkModel(10.0 ** (db / 10.0)), points=64)
    grid_sha, rest = {0: PINNED_AT_0DB, 10: PINNED_AT_10DB}[db][kind, d]
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
            for j in (0, 1, 2):
                assert retx_rung(snr, us[:j])(us[j])[0] == pytest.approx(p, abs=1e-8)

    def test_thresholds_nondecreasing(self):
        us = equal_probability_thresholds(3, 0.25, LINK5)
        assert all(a <= b for a, b in zip(us, us[1:]))

    def test_array_matches_scalar_where_a_rung_clamps(self):
        # at this SNR the round-3 fraction reaches p >= 0.9 already at u = U_1,
        # so U_2 clamps at that lower bound without a Newton step
        p = np.array([0.05, 0.3, 0.6, 0.9, 0.99])
        us = _ladder_thresholds(3, p, 1.0)
        assert np.all(us[2][3:] == us[1][3:]) and np.all(us[2][:3] > us[1][:3])
        for i, p_i in enumerate(p):
            assert [u[i] for u in us] == list(equal_probability_thresholds(3, p_i, LinkModel(1.0)))

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
        "rate", [0.0, -0.0, math.nan, np.array([0.6, 0.0]), np.array([0.7, -0.2]),
                 0.3, 0.5, np.array([0.7, 0.5])]
    )
    def test_rejects_a_rate_that_is_not_positive(self, rate):
        # a zero rate divided by zero: ZeroDivisionError for a float, a silent
        # full-retransmission ladder (and a RuntimeWarning) for an array; a rate
        # at or below 1/(1 + d) = 0.5 was clamped to the full-retransmission
        # ladder and reported at its own rate and SNR
        with pytest.raises(InvalidParameterError):
            resolve_strategy("rate", rate, 1, 1.0)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_rate_just_above_the_floor_is_full_retransmission(self, d):
        rate = np.nextafter(1.0 / (1.0 + d), 1.0)
        us, got_rate, snr_eff = resolve_strategy("rate", rate, d, 1.0)
        assert us == (math.inf,) * d
        assert got_rate == rate and snr_eff == rate


def rate_window(n, d, rate):
    """Window W of the protocol that runs forward rate ``rate``."""
    return scheme_protocol("sequential", ("rate", rate), n, d, 1.0)[0].windows[0]


class TestFixedRateWindow:
    def test_examples(self):
        assert rate_window(1000, 2, 0.8) == 125
        assert rate_window(1000, 1, 1000 / 1001) == 1
        assert rate_window(64, 2, 0.4) == 48

    def test_invalid_rates(self):
        with pytest.raises(InvalidParameterError):
            rate_window(1000, 2, 1 / 3)  # at the open lower endpoint
        with pytest.raises(InvalidParameterError):
            rate_window(1000, 2, 0.999)  # above n/(d+n)

    @given(d=st.integers(1, 4), data=st.data())
    def test_nonincreasing_in_rate(self, d, data):
        n = 512
        lo, hi = 1 / (1 + d), n / (d + n)
        r1 = data.draw(st.floats(lo + 1e-6, hi, allow_nan=False))
        r2 = data.draw(st.floats(r1, hi, allow_nan=False))
        assert rate_window(n, d, r2) <= rate_window(n, d, r1)


class TestResolveProtocol:
    """``scheme_protocol``: a scheme and its strategy flag resolved to a runnable config."""

    def test_rate_resolves_at_its_integer_window(self):
        # rate 0.8 at N = 1000, D = 2: W = round(500 * 0.25) = 125, ladder at 125/1000
        cfg, snr_eff = scheme_protocol("preassigned", ("rate", 0.8), 1000, 2, 3.0)
        us, _, want = resolve_strategy("window", 0.125, 2, 3.0)
        assert cfg.windows == (125, 125)
        assert cfg.thresholds == tuple(float(u) for u in us)
        assert snr_eff == want

    def test_window_fraction_rounds_half_away(self):
        # 0.25 * 10 = 2.5 rounds to W = 3, and the ladder is resolved at 3/10
        cfg, snr_eff = scheme_protocol("preassigned", ("window", 0.25), 10, 2, 3.0)
        us, _, want = resolve_strategy("window", 0.3, 2, 3.0)
        assert cfg.windows == (3, 3)
        assert cfg.thresholds == tuple(float(u) for u in us)
        assert snr_eff == want

    def test_tiny_window_fraction_keeps_one_bit(self):
        assert scheme_protocol("preassigned", ("window", 1e-4), 100, 1, 3.0)[0].windows == (1,)

    @pytest.mark.parametrize("kind, x", [("rate", 0.8), ("window", 0.25)])
    def test_is_the_windowed_config_plus_its_ladder(self, kind, x):
        # the sequential scheme reads W alone; the preassigned one adds the ladder at W/N
        bare, snr_eff = scheme_protocol("sequential", (kind, x), 1000, 2, 3.0)
        assert bare.thresholds is None and bare.windows == (bare.windows[0],) * 2
        us = equal_probability_thresholds(2, bare.windows[0] / 1000, LinkModel(snr_eff))
        want = (dataclasses.replace(bare, thresholds=us), snr_eff)
        assert scheme_protocol("preassigned", (kind, x), 1000, 2, 3.0) == want

    @pytest.mark.parametrize("fraction", [0.0, 1.5, math.nan])
    def test_rejects_a_window_fraction_outside_the_unit_interval(self, fraction):
        with pytest.raises(InvalidParameterError):
            scheme_protocol("preassigned", ("window", fraction), 100, 1, 3.0)

    def test_unknown_kind(self):
        for scheme in ("sequential", "preassigned"):
            with pytest.raises(InvalidParameterError, match="unknown window strategy 'power'"):
                scheme_protocol(scheme, ("power", 0.5), 100, 1, 3.0)
        with pytest.raises(InvalidParameterError, match="unknown scheme 'stop_and_wait'"):
            scheme_protocol("stop_and_wait", ("window", 0.5), 100, 1, 3.0)

    @pytest.mark.parametrize("scheme, flag, d", [
        ("full_repetition", ("window", 0.5), 1), ("sequential", ("window", 0.5), 0),
        ("sequential", None, 1), ("preassigned", None, 2),
    ])
    def test_only_full_repetition_and_d_0_take_no_flag(self, scheme, flag, d):
        with pytest.raises(InvalidParameterError, match="take no strategy"):
            scheme_protocol(scheme, flag, 100, d, 3.0)

    def test_no_flag_runs_at_base_over_1_plus_d(self):
        # the equalized SNR is base / (1 + D), the arithmetic the CLI header echoes
        assert scheme_protocol("full_repetition", None, 10, 2, 3.0) == (ProtocolConfig(10, 2), 1.0)
        assert scheme_protocol("preassigned", None, 10, 0, 3.0) == (ProtocolConfig(10, 0), 3.0)

    def test_shared_threshold_runs_without_windows(self):
        for scheme in ("sequential", "preassigned"):
            cfg, snr_eff = scheme_protocol(scheme, ("threshold", 0.9), 100, 2, 3.0)
            assert cfg.windows is None and cfg.thresholds == (0.9, 0.9)
            assert snr_eff == resolve_strategy("threshold", 0.9, 2, 3.0)[2]

    @pytest.mark.parametrize("kind", ["rate", "window"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_optimizer_windows_follow_the_same_rule(self, kind, d):
        res = RUNNERS[kind](1024, d, LINK5, points=16)
        flag = (kind, res.minimizer)
        cfg, _ = scheme_protocol("preassigned", flag, 1024, d, LINK5.snr_per_symbol)
        assert res.windows == cfg.windows


class TestSweepBlocks:
    def test_blocks_cover_the_grid_as_one_array_call(self):
        blocks = list(sweep_blocks("window", 1030, 64, 2, 3.0))
        assert [len(xs) for xs, *_ in blocks] == [512, 512, 6]
        xs = [x for block, *_ in blocks for x in block]
        assert xs == [(i + 1) / 1030 for i in range(1030)]
        us, rate, snr_eff = resolve_strategy("window", np.array(xs), 2, 3.0)
        for j in range(2):
            assert np.array_equal(np.concatenate([b[1][j] for b in blocks]), us[j])
        assert np.array_equal(np.concatenate([b[2] for b in blocks]), rate)
        assert np.array_equal(np.concatenate([b[3] for b in blocks]), snr_eff)

    def test_threshold_grid_tops_out_at_u_max(self):
        (xs, *_), = sweep_blocks("threshold", 4, 64, 1, 3.0)
        assert xs[-1] == pytest.approx(math.sqrt(6.0) + 4.0, rel=1e-15)
        (xs, *_), = sweep_blocks("threshold", 4, 64, 1, 3.0, u_max=2.0)
        assert xs == [0.5, 1.0, 1.5, 2.0]

    def test_grids_keep_their_doubles(self):
        # one formula, lo + (hi - lo)(i + 1)/points, gives every grid
        lo, hi = 1.0 / 3.0, 64 / 66
        (xs, *_), = sweep_blocks("rate", 7, 64, 2, 3.0)
        assert xs == [lo + (hi - lo) * (i + 1) / 7 for i in range(7)]
        (xs, *_), = sweep_blocks("threshold", 7, 64, 2, 3.0, u_max=3.7)
        assert xs == [3.7 * (i + 1) / 7 for i in range(7)]
        (xs, *_), = sweep_blocks("threshold", 4, 64, 1, 3.0, u_max=1e308)
        assert xs == [2.5e307, math.inf, math.inf, math.inf]

    def test_unknown_kind_raises_on_the_first_block(self):
        with pytest.raises(InvalidParameterError):
            next(sweep_blocks("power", 4, 64, 1, 3.0))


class TestInputDomain:
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: optimize_rate(1024, 1.5, LINK5), id="fractional-d"),  # TypeError
        pytest.param(lambda: optimize_window(1024, 1, LINK5, points=2.5), id="fractional-points"),
        pytest.param(lambda: optimize_threshold(0, 1, LINK5), id="empty-packet"),  # windows (0,)
        pytest.param(lambda: list(sweep_blocks("window", 0, 64, 1, 3.0)), id="no-points"),
        pytest.param(lambda: list(sweep_blocks("threshold", 4, 64, 1, 3.0, u_max=-1.0)),
                     id="negative-u-max"),  # yielded negative thresholds
        pytest.param(lambda: threshold_u_max(-1.0), id="u-max-of-negative-snr"),  # ValueError
        pytest.param(lambda: scheme_protocol("preassigned", ("window", 0.2), 1024, 1, -1.0),
                     id="negative-base-snr"),  # NumericFailureError
        pytest.param(lambda: scheme_protocol("preassigned", ("window", 0.2), 1024, 1, 0.0),
                     id="zero-base-snr"),
        pytest.param(lambda: scheme_protocol("sequential", ("threshold", math.nan), 1024, 1, 1.0),
                     id="nan-threshold"),  # NumericFailureError
        pytest.param(lambda: fixed_threshold_rate(1.5, 1.0, 3.0),
                     id="fractional-d-rate"),  # rate 0.983 from two rounds
        pytest.param(lambda: fixed_threshold_windows(64, 1.5, 1.0, 3.0),
                     id="fractional-d-windows"),  # (1, 0)
    ])
    def test_out_of_domain_input_is_rejected(self, call):
        with pytest.raises(InvalidParameterError):
            call()


_REALS = st.one_of(
    st.floats(), st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -1.0, 1e-300, 0.2, 0.9, 1.0, 1e10, 1e11, 1e308]),
)
_SIZES = st.one_of(st.integers(-2, 4096), st.sampled_from([1.5, 2.0, True, None]))
_DEPTHS = st.one_of(st.integers(-1, 4), st.sampled_from([1.5, True, None]))
_KINDS = st.sampled_from(["rate", "window", "threshold", "power"])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.sampled_from([*SCHEMES, "stop_and_wait"]), st.one_of(st.none(), st.tuples(_KINDS, _REALS)),
       _SIZES, _DEPTHS, _REALS)
@example("preassigned", ("window", 0.2), 1024, 2, 1.0)
@example("preassigned", ("rate", 0.9), 100, 3, 1e-300)
@example("sequential", ("threshold", 0.9), 64, 1, 1e10)
@example("full_repetition", None, 10, 2, 5e-324)  # the equalized SNR underflows to 0
def test_scheme_protocol_raises_only_typed_errors(scheme, flag, n, d, base_snr):
    try:
        config, snr_eff = scheme_protocol(scheme, flag, n, d, base_snr)
    except InvalidParameterError:
        return
    assert (config.packet_bits, config.retransmissions) == (n, d)
    assert 0.0 < snr_eff <= base_snr
    # a ladder only where the scheme reads one: preassigned, or a shared threshold
    ladder = flag is not None and (scheme == "preassigned" or flag[0] == "threshold")
    assert (config.thresholds is not None) == ladder


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_KINDS, st.one_of(st.integers(-1, 8), st.just(2.5)), _SIZES, _DEPTHS, _REALS,
       st.one_of(st.none(), _REALS))
def test_sweep_blocks_raise_only_typed_errors(kind, points, n, d, base_snr, u_max):
    try:
        xs = [x for block in sweep_blocks(kind, points, n, d, base_snr, u_max) for x in block[0]]
    except InvalidParameterError:
        return
    assert len(xs) == points and all(x > 0.0 for x in xs)


class TestOptimizers:
    @pytest.mark.parametrize("runner", [optimize_rate, optimize_window, optimize_threshold])
    def test_rejects_an_empty_grid(self, runner):
        with pytest.raises(InvalidParameterError):
            runner(16, 1, LinkModel(1.0), points=0)

    @pytest.mark.parametrize("design", [
        pytest.param(lambda link: optimize_rate(1024, 1, link), id="rate"),
        pytest.param(lambda link: optimize_window(1024, 1, link), id="window"),
        pytest.param(lambda link: optimize_threshold(1024, 1, link), id="threshold"),
        pytest.param(lambda link: equal_probability_thresholds(2, 0.2, link), id="ladder"),
    ])
    def test_a_fading_link_is_rejected(self, design):
        # only snr_per_symbol was read, so a fading link got exactly the AWGN design
        with pytest.raises(ConfigurationError, match="fading"):
            design(LinkModel(3.0, fading=SlowChiSquareFading(3.0)))

    def test_non_unimodal_sweep_falls_back_to_the_grid_minimum(self):
        # the one non-unimodal sweep found over -15..30 dB in 1 dB steps,
        # d = 1..3, every strategy, 64 and 16 points
        with pytest.warns(UserWarning) as caught:
            res = optimize_window(1024, 3, LinkModel(10**-1.0), points=64)
        assert [str(w.message) for w in caught] == [
            "sweep is not unimodal; falling back to the dense-grid argmin"
        ]
        assert (res.unimodal, res.refined, res.boundary) == (False, False, False)
        assert res.min_ber == min(b for _, b in res.grid)
        assert (res.minimizer, res.min_ber) in res.grid

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
            assert res.min_ber <= ber_approx(snr_eff, us, DEFAULT_PRONY) + 1e-15

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
        fractions = shared_threshold_fractions(d, u, base * rate)
        assert abs(rate - 1.0 / (1.0 + fractions.sum())) <= 1e-12
        assert rate == pytest.approx(0.48350, abs=1e-5)
        assert snr_eff == pytest.approx(base * rate, rel=1e-15)
        assert len(recwarn) == 0

    def test_largest_of_three_fixed_points(self, recwarn):
        # roots near 0.48, 0.761 and 0.781: the plain iteration from r = 1
        # creeps down onto 0.781 (200 steps leave a residual of 7.6e-6)
        d, u, base = 2, 3.44794419, 10**1.00293
        rate, _ = fixed_threshold_rate(d, u, base)
        fractions = shared_threshold_fractions(d, u, base * rate)
        assert abs(rate - 1.0 / (1.0 + fractions.sum())) <= 1e-12
        assert rate == pytest.approx(0.78050, abs=1e-5)
        assert len(recwarn) == 0

    def test_array_matches_scalar(self):
        # 3.4476 is the near-tangency threshold of test_slow_fixed_point_is_solved
        us = np.array([0.3, 1.2, 2.5, 3.4476, 4.0])
        for d in (1, 2, 3):
            for base in (0.5, 3.0, 10.0, 10**1.00275):
                rates, snrs = fixed_threshold_rate(d, us, base)
                for u, r, snr in zip(us, rates, snrs):
                    assert fixed_threshold_rate(d, float(u), base) == (r, snr), (d, base, u)

    def test_zero_threshold_retransmits_nothing(self):
        assert fixed_threshold_rate(2, 0.0, 3.0) == (1.0, 3.0)

    @pytest.mark.xfail(reason="the shared-threshold model values rounds 2..d+1 "
                       "where the sequential scheme retransmits in rounds 1..d (ROADMAP item 15)")
    def test_rate_counts_the_fractions_of_rounds_one_to_d(self):
        # at 3 dB a sequential run realizes fractions 0.1485 and 0.0453, which
        # the rungs give (0.1481, 0.0452); the shared-threshold model gives
        # (0.0452, 0.0210), so the rate reads 0.938 for a realized 0.838
        u = 0.9
        rate, snr_eff = fixed_threshold_rate(2, u, 10**0.3)
        rungs = retx_rung(snr_eff, ())(u)[0] + retx_rung(snr_eff, (u,))(u)[0]
        assert rate == pytest.approx(1.0 / (1.0 + rungs), rel=1e-9)


@pytest.mark.parametrize("db", [-5.0, 0.0, 2.5, 5.0, 7.5, 10.0, 12.0])
def test_closed_form_stays_within_five_percent_of_the_exact_ber_at_the_minima(db):
    # measured -4.1% to +4.8% over this grid; at 15 dB the closed form is
    # 14.6% low (rate, d = 3), so 15 dB has its own test below
    base = LinkModel(10 ** (db / 10))
    for d in (1, 2, 3):
        for kind, runner in RUNNERS.items():
            res = runner(1024, d, base)
            assert abs(res.min_ber / res.min_ber_exact - 1.0) <= 0.05, (kind, d)


def test_closed_form_gap_at_15_db_is_the_documented_band():
    # the README quotes the closed form as up to 14.6% low at 15 dB (rate, d = 3);
    # the threshold strategy reads 0.00% at every d
    want = {(1, "rate"): 0.0, (1, "window"): 0.0, (2, "rate"): -4.49, (2, "window"): -1.49,
            (3, "rate"): -14.56, (3, "window"): -11.72}
    base = LinkModel(10**1.5)
    gaps = {}
    for d in (1, 2, 3):
        for kind, runner in RUNNERS.items():
            res = runner(1024, d, base)
            gaps[d, kind] = 100.0 * (res.min_ber / res.min_ber_exact - 1.0)
            assert gaps[d, kind] == pytest.approx(want.get((d, kind), 0.0), abs=0.1), (d, kind)
    assert min(gaps, key=gaps.get) == (3, "rate")


def test_no_adaptive_quadrature_behind_the_design_path(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for d in (1, 2, 3):
        for runner in (optimize_rate, optimize_window, optimize_threshold):
            runner(256, d, LINK5, points=8)
    snr = LINK5.snr_per_symbol
    ber_exact(snr, (0.5, 1.0, 1.5))
    retx_rung(snr, (0.5,))(1.0)
    retx_rung(snr, (0.5, 1.0))(1.0)
    fixed_threshold_windows(1024, 3, 1.0, snr)


class TestInvertMonotone:
    """``_invert_monotone`` on synthetic increasing functions (value, slope)."""

    @staticmethod
    def line(roots):
        roots = np.asarray(roots, dtype=float)
        return lambda x: (x - roots, np.ones_like(x))

    def test_widens_the_bracket_until_it_holds_the_root(self):
        # [0, 1] holds the first root; the second needs hi = 16
        lo, hi = np.zeros(2), np.ones(2)
        assert list(_invert_monotone(self.line([0.5, 10.0]), lo, hi)) == [0.5, 10.0]

    def test_clamps_to_lo_where_already_non_negative(self):
        assert list(_invert_monotone(self.line([-1.0, 0.0]), np.zeros(2), np.ones(2))) == [0.0, 0.0]

    def test_fails_typed_when_no_bracket_is_found(self):
        def never(x):
            return np.full_like(x, -1.0), np.ones_like(x)

        with pytest.raises(InvalidParameterError, match="failed to bracket the threshold root"):
            _invert_monotone(never, np.zeros(1), np.ones(1))


def test_refine_keeps_the_grid_point_when_golden_section_ends_above_it():
    grid = ((0.0, 1.0), (1.0, 0.0), (2.0, 1.0))
    probed = []

    def objective(xs):
        probed.extend(xs)
        return np.ones_like(xs)  # above the grid minimum everywhere inside the bracket

    assert _refine(objective, grid, 1, True) == (1.0, 0.0, False, False)
    assert probed  # golden section ran and lost
