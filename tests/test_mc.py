import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bitarq import (
    ConfigurationError,
    InvalidParameterError,
    LinkModel,
    ProtocolConfig,
    SlowChiSquareFading,
    q_function,
)
from bitarq.analytic import ber_exact, retx_rung
from bitarq.mc import BLOCK_PACKETS, SCHEMES, TrialReport, _window_mask, compare_schemes, simulate
from bitarq.model import FixedThreshold, FixedWindow
from bitarq.optimize import equal_probability_thresholds

LINK1 = LinkModel(1.0)
LINK5 = LinkModel(10**0.5)
LADDER = {1: (0.9,), 2: (0.6, 1.1), 3: (0.5, 0.8, 1.2)}


def sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1 - p) / n)


class TestWindowMask:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(11)
        rel = np.abs(rng.normal(size=(8, 64)))
        mask = _window_mask(rel, 16)
        assert (mask.sum(axis=1) == 16).all()
        for row, picked in zip(rel, mask):
            assert set(np.flatnonzero(picked)) == set(np.argsort(row)[:16])

    @staticmethod
    def _argpartition_mask(rel, w):
        # the selection of one np.argpartition over the whole slab
        mask = np.zeros(rel.shape, dtype=bool)
        np.put_along_axis(mask, np.argpartition(rel, w - 1, axis=1)[:, :w], True, axis=1)
        return mask

    @pytest.mark.parametrize("w", [1, 157, 205, 756, 1024])
    def test_equals_argpartition_on_a_slab(self, w):
        rng = np.random.default_rng(w)
        rel = np.abs(rng.standard_normal((128, 1024)) + 1.2)
        assert (_window_mask(rel, w) == self._argpartition_mask(rel, w)).all()

    @pytest.mark.parametrize("w", [1, 157, 205, 756, 1024])
    def test_ties_at_the_window_edge_keep_exactly_w(self, w):
        # plant ties between the w-th smallest reliability and its neighbours:
        # a selection by value would keep more than w bits in those rows
        rng = np.random.default_rng(100 + w)
        rel = np.abs(rng.standard_normal((128, 1024)) + 1.2)
        order = np.argsort(rel, axis=1)
        tied = rng.choice(128, size=40, replace=False)
        for i in tied:
            edge = rel[i, order[i, w - 1]]
            rel[i, order[i, w:w + 3]] = edge  # fewer than 3 past the edge when w > N - 3
            if w > 1:
                rel[i, order[i, w - 2]] = edge
        mask = _window_mask(rel, w)
        assert (mask.sum(axis=1) == w).all()
        assert (mask == self._argpartition_mask(rel, w)).all()


class TestSimulateBaselines:
    def test_uncoded(self):
        rep = simulate(ProtocolConfig(1000, 0), LINK1, "sequential", 2_000_000, seed=1)
        p = float(q_function(math.sqrt(2)))
        assert abs(rep.ber - p) < 3 * sigma(p, rep.bits_simulated)
        assert rep.retransmitted_bits == ()
        assert rep.forward_rate_realized == 1.0

    def test_full_repetition(self):
        rep = simulate(
            ProtocolConfig(1000, 1), LINK1, "full_repetition", 2_000_000, seed=2
        )
        p = float(q_function(2.0))
        assert abs(rep.ber - p) < 3 * sigma(p, rep.bits_simulated)
        assert rep.retransmitted_bits == (2_000_000,)
        assert rep.forward_rate_realized == pytest.approx(0.5)

    def test_preassigned_matches_quadrature(self):
        us = equal_probability_thresholds(1, 0.3, LINK5)
        cfg = ProtocolConfig(1000, 1, strategy=FixedWindow(0.3), thresholds=us)
        rep = simulate(cfg, LINK5, "preassigned", 2_000_000, seed=3)
        p = ber_exact(LINK5.snr_per_symbol, us)
        assert abs(rep.ber - p) < 3 * sigma(p, rep.bits_simulated)


class TestSimulateBehavior:
    @pytest.mark.parametrize("strategy", [None, FixedWindow(0.25), FixedThreshold(0.9)])
    def test_sequential_selection_follows_windows_alone(self, strategy):
        # the strategy tag is a label: windows set means the W least reliable bits
        windowed = ProtocolConfig(100, 1, strategy=strategy, thresholds=(0.9,), windows=(25,))
        rep = simulate(windowed, LINK1, "sequential", 10_000, seed=6)
        assert rep.retransmitted_bits == (2_500,)
        # no windows means the bits below the threshold
        ladder = replace(windowed, windows=None)
        plain = ProtocolConfig(100, 1, thresholds=(0.9,))
        assert simulate(ladder, LINK1, "sequential", 10_000, seed=6) == simulate(
            plain, LINK1, "sequential", 10_000, seed=6
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_windowed_sequential_run_reads_no_ladder(self, d, seed):
        # the CLI builds a windowed sequential config without thresholds
        windows = (205,) * d
        bare = ProtocolConfig(1024, d, windows=windows)
        laddered = ProtocolConfig(1024, d, thresholds=LADDER[d], windows=windows)
        assert simulate(bare, LINK1, "sequential", 102_400, seed) == simulate(
            laddered, LINK1, "sequential", 102_400, seed
        )

    def test_fading_link_is_rejected(self):
        # the engine draws at snr_per_symbol only, so a fading link would get
        # the plain AWGN report
        faded = LinkModel(2.0, fading=SlowChiSquareFading(2.0))
        cfg = ProtocolConfig(100, 2, thresholds=LADDER[2])
        for scheme in SCHEMES:
            with pytest.raises(ConfigurationError, match="fading"):
                simulate(cfg, faded, scheme, 1_000, seed=0)
        with pytest.raises(ConfigurationError, match="fading"):
            compare_schemes(cfg, faded, 1_000)

    def test_deterministic(self):
        cfg = ProtocolConfig(500, 2, thresholds=(0.6, 1.2))
        a = simulate(cfg, LINK5, "preassigned", 500_000, seed=42)
        b = simulate(cfg, LINK5, "preassigned", 500_000, seed=42)
        assert a == b

    def test_block_and_thread_invariance(self):
        # every scheme's path, on several blocks and a partial one, at one to four
        # threads and at the default of every usable core
        for cfg, scheme in [
            (ProtocolConfig(100, 1, thresholds=(0.8,)), "sequential"),
            (ProtocolConfig(64, 2, thresholds=LADDER[2]), "preassigned"),
            (ProtocolConfig(64, 2, windows=(16, 8)), "sequential"),
            (ProtocolConfig(64, 2), "full_repetition"),
        ]:
            bits = cfg.packet_bits * (7 * BLOCK_PACKETS + 45)
            want = simulate(cfg, LINK5, scheme, bits, seed=9, n_jobs=1)
            for jobs in (2, 3, 4, None):
                assert simulate(cfg, LINK5, scheme, bits, seed=9, n_jobs=jobs) == want, jobs

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_block_streams_are_the_children_of_the_seed(self, seed):
        # block i is seeded as SeedSequence(seed, spawn_key=(i,)) when it starts,
        # which is the i-th child that SeedSequence(seed).spawn would return; both
        # key the same SFC64 stream, the engine's block generator
        children = np.random.SeedSequence(seed).spawn(40)
        for i in (0, 1, 7, 39):
            own = np.random.SeedSequence(seed, spawn_key=(i,))
            assert own.state == children[i].state
            words = np.random.SFC64(own).random_raw(4)
            assert (words == np.random.SFC64(children[i]).random_raw(4)).all()

    def test_sequential_windows_track_round_fractions(self):
        us = equal_probability_thresholds(2, 0.3, LINK5)
        cfg = ProtocolConfig(1000, 2, thresholds=us)
        rep = simulate(cfg, LINK5, "sequential", 2_000_000, seed=4)
        n = rep.bits_simulated
        p0 = retx_rung(LINK5.snr_per_symbol, ())(us[0])[0]
        p1 = retx_rung(LINK5.snr_per_symbol, us[:1])(us[1])[0]
        assert abs(rep.retransmitted_bits[0] / n - p0) < 3 * sigma(p0, n)
        assert abs(rep.retransmitted_bits[1] / n - p1) < 3 * sigma(p1, n)

    def test_fixed_threshold_windows_track_band_probabilities(self):
        u = 1.0
        cfg = ProtocolConfig(1000, 2, strategy=FixedThreshold(u), thresholds=(u, u))
        rep = simulate(cfg, LINK5, "sequential", 2_000_000, seed=12)
        snr = LINK5.snr_per_symbol
        n = rep.bits_simulated
        p0 = retx_rung(snr, ())(u)[0]
        p1 = retx_rung(snr, (u,))(u)[0]
        assert abs(rep.retransmitted_bits[0] / n - p0) < 3 * sigma(p0, n)
        assert abs(rep.retransmitted_bits[1] / n - p1) < 3 * sigma(p1, n)

    def test_realized_rate_consistent(self):
        us = equal_probability_thresholds(1, 0.25, LINK5)
        cfg = ProtocolConfig(1000, 1, thresholds=us)
        rep = simulate(cfg, LINK5, "sequential", 1_000_000, seed=5)
        n_f = rep.bits_simulated + sum(rep.retransmitted_bits)
        assert rep.forward_rate_realized == pytest.approx(
            rep.bits_simulated / n_f, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            simulate(ProtocolConfig(1000, 0), LINK1, "sequential", 1500, seed=0)
        with pytest.raises(ConfigurationError):
            simulate(ProtocolConfig(1000, 0), LINK1, "bogus", 1000, seed=0)
        with pytest.raises(ConfigurationError):
            simulate(ProtocolConfig(1000, 1), LINK1, "preassigned", 1000, seed=0)
        # full repetition decides on nothing, so a fixed-threshold label changes nothing
        labelled = ProtocolConfig(1000, 1, strategy=FixedThreshold(0.5), thresholds=(0.5,))
        want = simulate(ProtocolConfig(1000, 1), LINK1, "full_repetition", 1000, seed=0)
        assert simulate(labelled, LINK1, "full_repetition", 1000, seed=0) == want

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"bits": 64.0}, {"bits": 0},
        {"n_jobs": 0}, {"n_jobs": -2}, {"n_jobs": 2.0},
    ], ids=repr)
    def test_argument_types_and_ranges(self, kwargs):
        # raw ValueError / TypeError from SeedSequence or the block plan, or
        # (n_jobs <= 0) a silent single-threaded run
        args = {"bits": 128, "seed": 0, **kwargs}
        with pytest.raises(InvalidParameterError):
            simulate(ProtocolConfig(64, 0), LINK1, "sequential", **args)

    def test_numpy_integers_are_accepted(self):
        cfg = ProtocolConfig(64, 1, windows=(8,))
        want = simulate(cfg, LINK1, "sequential", 640, seed=3, n_jobs=2)
        got = simulate(cfg, LINK1, "sequential", np.int64(640), seed=np.uint32(3), n_jobs=np.int8(2))
        assert got == want


class TestCompareSchemes:
    def test_huge_thresholds_coincide(self):
        # both schemes retransmit every bit in every round; the preassigned scheme
        # draws each bit's two copies as one sum, so only the counts coincide exactly
        cfg = ProtocolConfig(1000, 2, thresholds=(50.0, 50.0))
        seq, pre = (simulate(cfg, LINK5, scheme, 500_000, seed=8) for scheme in ("sequential", "preassigned"))
        assert seq.retransmitted_bits == pre.retransmitted_bits == (500_000, 500_000)
        assert compare_schemes(cfg, LINK5, 500_000, seed=8) == (seq.ber, pre.ber)
        p = float(q_function(math.sqrt(2 * LINK5.snr_per_symbol * 3)))
        assert abs(seq.ber - pre.ber) < 4 * math.sqrt(2) * sigma(p, 500_000)
        for ber in (seq.ber, pre.ber):
            assert abs(ber - p) < 4 * sigma(p, 500_000)

    def test_zero_thresholds_coincide(self):
        cfg = ProtocolConfig(1000, 2, thresholds=(0.0, 0.0))
        s, p = compare_schemes(cfg, LINK5, 500_000, seed=9)
        assert s == p

    def test_requires_two_rounds(self):
        cfg = ProtocolConfig(1000, 1, thresholds=(1.0,))
        with pytest.raises(ConfigurationError):
            compare_schemes(cfg, LINK5, 100_000)

    def test_requires_the_ladder(self):
        cfg = ProtocolConfig(1000, 2, windows=(100, 100))
        with pytest.raises(ConfigurationError, match="needs the threshold ladder"):
            compare_schemes(cfg, LINK5, 100_000)

    def test_preassigned_not_worse_at_moderate_thresholds(self):
        us = equal_probability_thresholds(2, 0.35, LINK1)
        cfg = ProtocolConfig(1000, 2, thresholds=us)
        s, p = compare_schemes(cfg, LINK1, 4_000_000, seed=10)
        # extra combining of the preassigned scheme can only help, up to noise
        assert p <= s + 3 * sigma(s, 4_000_000)

    def test_equals_simulate(self):
        cfg = ProtocolConfig(100, 2, thresholds=LADDER[2])
        bits = 100 * (BLOCK_PACKETS + 50)
        pair = compare_schemes(cfg, LINK1, bits, seed=13)
        seq = simulate(cfg, LINK1, "sequential", bits, seed=13)
        pre = simulate(cfg, LINK1, "preassigned", bits, seed=13)
        assert pair == (seq.ber, pre.ber)

    def test_decides_on_the_ladder_under_a_window_strategy(self):
        windowed = ProtocolConfig(
            100, 2, strategy=FixedWindow(0.25), thresholds=LADDER[2], windows=(25, 25)
        )
        ladder = ProtocolConfig(100, 2, thresholds=LADDER[2])
        assert compare_schemes(windowed, LINK1, 50_000, seed=14) == compare_schemes(
            ladder, LINK1, 50_000, seed=14
        )


_REAL_GENERATOR = np.random.Generator


class _CountingGenerator:
    """The engine's SFC64 block generator, counting the normals it returns; it has
    no other method, so an engine that draws anything else fails loudly."""

    drawn = 0

    def __init__(self, bit_generator):
        self._g = _REAL_GENERATOR(bit_generator)

    def standard_normal(self, size=None, out=None):
        z = self._g.standard_normal(size, out=out)
        type(self).drawn += np.size(z)
        return z


CONTRACT_BITS = 100 * (BLOCK_PACKETS + 30)  # a full block and a partial one


class TestDrawContract:
    @pytest.mark.parametrize("cfg, link, scheme", [
        (ProtocolConfig(100, 0), LINK1, "sequential"),
        (ProtocolConfig(100, 2), LINK1, "full_repetition"),
        (ProtocolConfig(100, 1, thresholds=LADDER[1]), LINK5, "preassigned"),
        (ProtocolConfig(100, 3, thresholds=LADDER[3]), LINK5, "preassigned"),
        (ProtocolConfig(100, 3, thresholds=LADDER[3]), LINK5, "sequential"),
        (ProtocolConfig(100, 2, thresholds=LADDER[2], windows=(30, 10)), LINK1, "sequential"),
        (ProtocolConfig(100, 2, thresholds=(0.0, 0.0)), LINK1, "preassigned"),
    ], ids=["d0", "full-repetition", "preassigned-d1", "preassigned-d3", "sequential-d3",
            "sequential-windows", "nothing-retransmitted"])
    def test_one_normal_per_transmitted_symbol(self, monkeypatch, cfg, link, scheme):
        # a sum of copies that no decision splits is one symbol: full repetition
        # draws one normal per bit, and the preassigned scheme one per bit plus one
        # per bit with band < d, which are the bits its last round retransmits
        expected = simulate(cfg, link, scheme, CONTRACT_BITS, seed=3)
        monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
        monkeypatch.setattr(_CountingGenerator, "drawn", 0)
        rep = simulate(cfg, link, scheme, CONTRACT_BITS, seed=3)
        assert rep == expected
        r = rep.retransmitted_bits
        copy_sums = {"full_repetition": 0, "preassigned": sum(r[-1:])}.get(scheme, sum(r))
        assert _CountingGenerator.drawn == rep.bits_simulated + copy_sums

    @pytest.mark.parametrize("u, link, seed", [
        (0.5, LINK1, 1), (0.9, LINK5, 2), (1.4, LINK5, 3), (3.0, LINK1, 4),
    ])
    def test_sequential_equals_preassigned_at_one_retransmission(self, u, link, seed):
        # with one round both schemes retransmit the bits with |r0| <= u and
        # draw their copies in the same order
        cfg = ProtocolConfig(100, 1, thresholds=(u,))
        seq = simulate(cfg, link, "sequential", CONTRACT_BITS, seed=seed)
        pre = simulate(cfg, link, "preassigned", CONTRACT_BITS, seed=seed)
        assert seq == pre


MULTI_BLOCK_BITS = 10 * (32 * BLOCK_PACKETS + 37)

# (config, link, scheme, bits, seed, n_jobs) -> (bit errors, retransmitted, rate).
# The draw rule: each block of BLOCK_PACKETS = 128 packets draws from an SFC64
# generator seeded by its index, first its first pass as one (packets, N)
# matrix, then one normal per sum of copies that no decision splits: nothing
# more for full repetition, one per bit of band b < d for the preassigned
# scheme (band by band, in packet order), and one per retransmitted bit in each
# round, in packet order, for the sequential scheme.  Every report was
# re-recorded when a block shrank from 2,048 to 128 packets, at unchanged bit
# counts, which split each run into other streams, and again when the blocks
# moved from PCG64 to SFC64 and began drawing copy sums.
PINNED = [
    ((ProtocolConfig(100, 0), LINK1, "sequential", 20_000, 1, 1), (1613, (), 1.0)),
    ((ProtocolConfig(100, 1), LINK1, "full_repetition", 20_000, 2, 1), (426, (20000,), 0.5)),
    (
        (ProtocolConfig(100, 3), LINK1, "full_repetition", 20_000, 2, 1),
        (43, (20000, 20000, 20000), 0.25),
    ),
    (
        (ProtocolConfig(100, 1, thresholds=LADDER[1]), LINK5, "preassigned", 50_000, 11, 1),
        (26, (2636,), 0.949920206702637),
    ),
    (
        (ProtocolConfig(100, 1, thresholds=LADDER[1]), LINK5, "sequential", 50_000, 11, 1),
        (26, (2636,), 0.949920206702637),
    ),
    (
        (ProtocolConfig(100, 2, thresholds=LADDER[2]), LINK5, "preassigned", 50_000, 12, 1),
        (9, (1299, 3898), 0.9058463322282008),
    ),
    (
        (ProtocolConfig(100, 2, thresholds=LADDER[2]), LINK5, "sequential", 50_000, 12, 1),
        (12, (1299, 2979), 0.9211835366078337),
    ),
    (
        (ProtocolConfig(100, 3, thresholds=LADDER[3]), LINK5, "preassigned", 50_000, 13, 1),
        (8, (1055, 2175, 4718), 0.8628425484917512),
    ),
    (
        (ProtocolConfig(100, 3, thresholds=LADDER[3]), LINK5, "sequential", 50_000, 13, 1),
        (8, (1055, 1267, 3172), 0.9009983061231844),
    ),
    (
        (
            ProtocolConfig(
                100, 2, strategy=FixedWindow(0.25), thresholds=LADDER[2], windows=(25, 25)
            ),
            LINK1, "sequential", 50_000, 21, 1,
        ),
        (779, (12500, 12500), 0.6666666666666666),
    ),
    (
        (
            ProtocolConfig(100, 1, windows=(25,)),
            LINK1, "sequential", 50_000, 22, 1,
        ),
        (1508, (12500,), 0.8),
    ),
    (
        (
            ProtocolConfig(100, 2, strategy=FixedThreshold(0.9), thresholds=(0.9, 0.9)),
            LINK5, "sequential", 50_000, 23, 1,
        ),
        (22, (2651, 360), 0.943200467827432),
    ),
    (
        (
            ProtocolConfig(100, 3, thresholds=LADDER[3], windows=(20, 20, 20)),
            LINK1, "sequential", 50_000, 24, 1,
        ),
        (607, (10000, 10000, 10000), 0.625),
    ),
    (
        (
            ProtocolConfig(10, 2, thresholds=LADDER[2]),
            LINK1, "preassigned", MULTI_BLOCK_BITS, 31, 2,
        ),
        (676, (7560, 15197), 0.6449045828327118),
    ),
    (
        (
            ProtocolConfig(10, 2, thresholds=LADDER[2], windows=(3, 3)),
            LINK1, "sequential", MULTI_BLOCK_BITS, 32, 2,
        ),
        (627, (12399, 12399), 0.625),
    ),
]


@pytest.mark.parametrize(
    "case, expected", PINNED,
    ids=[f"{case[2]}-d{case[0].retransmissions}-seed{case[4]}" for case, _ in PINNED],
)
def test_pinned_reports(case, expected):
    cfg, link, scheme, bits, seed, jobs = case
    errors, retransmitted, rate = expected
    rep = simulate(cfg, link, scheme, bits, seed, n_jobs=jobs)
    assert rep == TrialReport(bits, errors, retransmitted, rate, seed)


# Wider than one byte of per-bit state: 300 rounds make copy counts and band
# indices reach 301 and 300.  (scheme, thresholds) -> (bit errors, total
# retransmitted, rate, sha256 of the retransmitted tuple's repr).
WIDE_STATE = [
    (
        ("sequential", (2.0,) * 300),
        (0, 183058, 0.0055627383448680475,
         "08a668a0311116d273323c43b5267416b30a544555fe72eb83a8b363b0cd4e90"),
    ),
    (
        ("preassigned", tuple(0.01 * i for i in range(300))),
        (0, 158558, 0.006416763795415523,
         "8a08eda911a3a1ee170b9ddee439aa1c51fd41467d36104f301f8af37349acbe"),
    ),
]


@pytest.mark.parametrize("case, expected", WIDE_STATE, ids=[c[0] for c, _ in WIDE_STATE])
def test_pinned_reports_with_300_rounds(case, expected):
    scheme, thresholds = case
    rep = simulate(ProtocolConfig(16, 300, thresholds=thresholds), LINK1, scheme, 1024, 5)
    r = rep.retransmitted_bits
    digest = hashlib.sha256(repr(r).encode()).hexdigest()
    assert (rep.bit_errors, sum(r), rep.forward_rate_realized, digest) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_pinned_windowed_report_at_1024_bits(jobs):
    # 18 full blocks and a partial one, at the packet size the CLI uses
    bits = 1024 * (18 * BLOCK_PACKETS + 44)
    cfg = ProtocolConfig(1024, 2, windows=(205, 82))
    rep = simulate(cfg, LINK1, "sequential", bits, 7, n_jobs=jobs)
    assert rep == TrialReport(bits, 56697, (481340, 192536), 0.7810831426392068, 7)


def _traced_peak(cfg, scheme, packets):
    tracemalloc.start()
    try:
        simulate(cfg, LINK1, scheme, 1024 * packets, seed=1, n_jobs=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cfg, scheme", [
    (ProtocolConfig(1024, 3, thresholds=LADDER[3]), "preassigned"),
    (ProtocolConfig(1024, 2, thresholds=LADDER[2]), "sequential"),
    (ProtocolConfig(1024, 2, windows=(205, 205)), "sequential"),
    (ProtocolConfig(1024, 2, windows=(820, 820)), "sequential"),
    (ProtocolConfig(1024, 2), "full_repetition"),
], ids=["preassigned-d3", "sequential-threshold", "sequential-w205", "sequential-w820",
        "full-repetition"])
def test_block_memory_stays_near_its_sample_matrix(cfg, scheme):
    # a worker holds one block: 1 MB of samples, 1 MB of scratch, one small
    # integer per bit and one round's temporaries, however many blocks it runs
    peak = _traced_peak(cfg, scheme, 2048)
    assert peak <= 6 * 2**20, peak / 2**20
    assert _traced_peak(cfg, scheme, 4 * 2048) <= 1.1 * peak


@pytest.mark.parametrize("d", [2, 3])
def test_preassigned_bands_take_no_memory_of_their_own(d):
    # the band index was built from a fresh |r0| matrix per block, 1 MB at N = 1024,
    # which raised the preassigned peak about 0.9 MiB above the sequential one
    cfg = ProtocolConfig(1024, d, thresholds=LADDER[d])
    simulate(cfg, LINK1, "sequential", 1024, seed=1)  # a first call imports numpy.random
    gap = _traced_peak(cfg, "preassigned", 2048) - _traced_peak(cfg, "sequential", 2048)
    assert gap <= 0.25 * 2**20, gap / 2**20
