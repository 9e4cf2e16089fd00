import hashlib
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitarq import InvalidParameterError, SearchExhaustedError, feedback
from bitarq.feedback import (
    MAX_SEARCH_SUBSETS,
    CombinadicMessage,
    PermutationMessage,
    combinadic_decode,
    combinadic_encode,
    expected_idle_periods,
    feedback_bit_width,
    feedback_error_tolerance,
    mean_report_delay,
    optimal_c1,
    pack_bits,
    permutation_recover,
    permutation_search,
    simulate_permutation_search,
    subset_at,
    throughput_one_retx,
    unpack_bits,
)
from bitarq.model import check_search, check_subset


class TestCombinadic:
    def test_first_subset(self):
        msg = combinadic_encode([0, 1], 4)
        assert msg.rank == 0
        assert msg.bit_width == 3

    def test_last_subset(self):
        assert combinadic_encode([2, 3], 4).rank == 5

    def test_segment_width(self):
        assert feedback_bit_width(532, 3) == 25

    def test_colex_order_is_exhaustive_bijection(self):
        for n in (4, 9):
            for w in range(1, n + 1):
                seen = []
                for subset in itertools.combinations(range(n), w):
                    msg = combinadic_encode(subset, n)
                    assert msg.rank < math.comb(n, w)
                    assert combinadic_decode(msg, n, w) == subset
                    seen.append(msg.rank)
                assert sorted(seen) == list(range(math.comb(n, w)))

    def test_decode_rejects_large_rank(self):
        msg = CombinadicMessage(6, 3)
        with pytest.raises(InvalidParameterError):
            combinadic_decode(msg, 4, 2)

    @pytest.mark.parametrize("n, w", [(3, -1), (-1, 0), (3.0, 1)])
    def test_decode_rejects_non_counts(self, n, w):
        # math.comb raised a raw ValueError for a negative n or w
        with pytest.raises(InvalidParameterError):
            combinadic_decode(CombinadicMessage(0, 2), n, w)

    def test_encode_validation(self):
        with pytest.raises(InvalidParameterError):
            combinadic_encode([1, 1], 4)
        with pytest.raises(InvalidParameterError):
            combinadic_encode([4], 4)
        # w = 0 both ways: the empty set is rank 0 in 0 bits
        assert combinadic_encode([], 4) == CombinadicMessage(0, 0)
        assert combinadic_decode(combinadic_encode([], 4), 4, 0) == ()
        with pytest.raises(InvalidParameterError, match="exactly w positions"):
            permutation_search([], 4, 1, 1, rng_seed=1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_round_trip(self, data):
        n = data.draw(st.integers(2, 64))
        w = data.draw(st.integers(1, n))
        subset = tuple(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=w, max_size=w, unique=True)
        )))
        msg = combinadic_encode(subset, n)
        assert combinadic_decode(msg, n, w) == subset

    def test_width_lower_bound(self):
        # information-theoretic sanity: C >= w*log2(n/w) - O(w)
        for n, w in [(64, 8), (256, 16), (1024, 4)]:
            width = feedback_bit_width(n, w)
            assert width >= w * math.log2(n / w) - 2 * w


class TestBitPacking:
    def test_exact_width_big_endian(self):
        data = pack_bits(0b10110, 5)
        assert data == bytes([0b10110000])
        assert unpack_bits(data, 5) == 0b10110

    def test_multi_byte(self):
        msg = combinadic_encode([3, 141, 500], 532)
        data = msg.to_bytes()
        assert len(data) == (msg.bit_width + 7) // 8
        assert unpack_bits(data, msg.bit_width) == msg.rank
        # bytes-like payloads are read as their raw bytes, whatever a view's item size
        for view in (bytearray(data), memoryview(data), memoryview(data).cast("H")):
            assert unpack_bits(view, msg.bit_width) == msg.rank

    def test_width_checks(self):
        with pytest.raises(InvalidParameterError):
            pack_bits(8, 3)
        with pytest.raises(InvalidParameterError):
            unpack_bits(b"\x00\x00", 3)

    @pytest.mark.parametrize("value, width", [(1.5, 4), (1, 2.0), (-1, 4), (1, -1)])
    def test_pack_rejects_non_counts(self, value, width):
        # a float value raised a raw AttributeError
        with pytest.raises(InvalidParameterError):
            pack_bits(value, width)


def _unrank(word: int, n: int, w: int) -> tuple[int, ...]:
    """The stream contract: a 64-bit word names the w-subset of colex rank
    (word * C(n, w)) >> 64."""
    rank = (word * math.comb(n, w)) >> 64
    return combinadic_decode(CombinadicMessage(rank, feedback_bit_width(n, w)), n, w)


def _planted(words):
    """A stand-in for the session generator: it emits ``words``, then repeats the last."""
    stream, last = list(words), words[-1]

    class Planted:
        class bit_generator:
            @staticmethod
            def random_raw(size):
                head = stream[:size]
                del stream[:size]
                return np.array(head + [last] * (size - len(head)), dtype=np.uint64)

    return lambda *args: Planted()


class TestPermutationStream:
    def test_jump_equals_sequence(self):
        # one keyed Philox generator drawn sequentially, in uneven chunks as a
        # search draws it, yields subset_at(seed, i, n, w): entry i is word i
        seed = 77
        g = np.random.Philox(key=seed)
        words = np.concatenate([g.random_raw(k) for k in (1, 7, 256, 736)]).tolist()
        assert len(words) == 1000
        for n, w in ((10, 2), (13, 4), (16, 3)):
            for i, x in enumerate(words):
                assert subset_at(seed, i, n, w) == _unrank(x, n, w), (n, w, i)

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 + 77, 2**128 - 1])
    def test_both_key_words_follow_the_seed(self, seed):
        # the reused generator is re-keyed in place; its 128-bit key must
        # match a Philox constructed from the same seed
        for index in (0, 1, 3, 4, 999):
            g = np.random.Philox(key=seed, counter=[index // 4, 0, 0, 0])
            x = int(g.random_raw(4)[index % 4])
            assert subset_at(seed, index, 16, 3) == _unrank(x, 16, 3), index

    def test_searches_in_threads_match_one_thread(self):
        # each thread re-keys its own generator: a search interleaved with
        # another thread's must find the same stream indexes
        args = [(16, 3, 4, 40, seed) for seed in range(8)]
        expected = [simulate_permutation_search(*a)[0] for a in args]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(simulate_permutation_search, *a) for a in args]
                got = [f.result(timeout=60)[0] for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for ks, want in zip(got, expected):
            assert (ks == want).all()

    def test_distinct_indexes_give_distinct_permutations(self):
        assert subset_at(5, 0, 16, 3) != subset_at(5, 1, 16, 3)

    def test_whole_packet_window_hits_first_permutation(self):
        # C(n, w) = 1: every entry names the whole packet, so K = 1; the
        # rank interval is all 2**64 words, one more than a uint64 holds
        for n in (8, 1):
            msg = permutation_search(range(n), n, n, 3, rng_seed=99)
            assert msg.stream_index == 1
            assert msg.idle_periods == 0
            assert msg.residual == 1
            assert permutation_recover(msg, n, n, rng_seed=99) == tuple(range(n))

    def test_round_trip(self):
        targets = (2, 9, 13)
        msg = permutation_search(targets, 16, 3, 9, rng_seed=1234)
        assert permutation_recover(msg, 16, 3, rng_seed=1234) == targets

    def test_round_trip_many(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            targets = tuple(sorted(rng.choice(24, size=4, replace=False).tolist()))
            msg = permutation_search(targets, 24, 4, 7, rng_seed=1000 + trial)
            assert permutation_recover(msg, 24, 4, rng_seed=1000 + trial) == targets

    def test_index_decomposition(self):
        msg = PermutationMessage(residual=5, idle_periods=3, bit_width=4)
        assert msg.stream_index == 3 * 16 + 5
        assert unpack_bits(msg.to_bytes(), 4) == 5

    def test_residual_must_fit_its_width(self):
        assert PermutationMessage(residual=15, idle_periods=0, bit_width=4).residual == 15
        with pytest.raises(InvalidParameterError, match="residual must fit in bit_width bits"):
            PermutationMessage(residual=16, idle_periods=0, bit_width=4)

    def test_search_cap(self, monkeypatch):
        # with seed 1 the first match is entry 1979, past one mean search of C(16, 3) = 560
        assert permutation_search((0, 2, 4), 16, 3, 4, rng_seed=1).stream_index == 1979
        monkeypatch.setattr(feedback, "_SEARCH_MEANS", 1)
        with pytest.raises(SearchExhaustedError) as exc:
            permutation_search((0, 2, 4), 16, 3, 4, rng_seed=1)
        assert exc.value.tried == 560

    def test_default_budget_is_64_mean_searches(self, monkeypatch):
        # word 0 names the targets (rank 0), the largest word the last rank: a
        # match at entry 64 * C(n, w) is found, one entry later it is not, as
        # the last chunk is cut to the budget
        for targets, n, w in (((0,), 2, 1), ((0, 1), 10, 2), ((0, 1, 2), 16, 3)):
            budget = 64 * math.comb(n, w)
            for misses in (budget - 1, budget):
                planted = _planted([2**64 - 1] * misses + [0])
                monkeypatch.setattr(feedback, "_stream_generator", planted)
                if misses < budget:
                    assert permutation_search(targets, n, w, 1, rng_seed=1).stream_index == budget
                    continue
                with pytest.raises(SearchExhaustedError) as exc:
                    permutation_search(targets, n, w, 1, rng_seed=1)
                assert exc.value.tried == budget

    @pytest.mark.parametrize("total", [2, 3, 20, 560, 10**6])
    def test_rank_intervals_tile_the_word_range(self, total):
        # [lo, hi) holds exactly the words x with (x * total) >> 64 == rank;
        # the intervals are contiguous, cover [0, 2**64) and differ in width by at most one
        ranks = range(total) if total < 10**6 else [0, 1, 2, 499_999, 500_000, 10**6 - 2, 10**6 - 1]
        floor, ceil = (1 << 64) // total, -(-(1 << 64) // total)
        for rank in ranks:
            lo, hi = feedback._rank_words(rank, total)
            assert (lo == 0) == (rank == 0) and (hi == 1 << 64) == (rank == total - 1)
            assert hi - lo in (floor, ceil)
            assert (lo * total) >> 64 == rank == ((hi - 1) * total) >> 64
            if rank:
                assert ((lo - 1) * total) >> 64 == rank - 1
                assert feedback._rank_words(rank - 1, total)[1] == lo

    def test_search_boundaries(self, monkeypatch):
        # lo - 1 and hi name the neighbouring ranks; lo and hi - 1 the target's own
        rank = combinadic_encode((2, 9, 13), 16).rank
        lo, hi = feedback._rank_words(rank, 560)
        assert [(x * 560) >> 64 for x in (lo - 1, lo, hi - 1, hi)] == [rank - 1, rank, rank, rank + 1]
        for words, k in (([lo - 1, hi, lo], 3), ([hi - 1, lo - 1], 1)):
            monkeypatch.setattr(feedback, "_stream_generator", _planted(words))
            assert permutation_search((2, 9, 13), 16, 3, 4, rng_seed=1).stream_index == k

    @pytest.mark.parametrize("n, w", [(1024, 4), (64, 8), (1024, 512)])
    def test_unviable_search_points_to_combinadic_codec(self, n, w):
        assert math.comb(n, w) > MAX_SEARCH_SUBSETS
        with pytest.raises(InvalidParameterError, match="combinadic"):
            permutation_search(range(w), n, w, 4, rng_seed=1)

    def test_exact_window_size_required(self):
        with pytest.raises(InvalidParameterError):
            permutation_search((0, 1), 16, 3, 4, rng_seed=1)

    def test_mean_search_length(self):
        ks, _ = simulate_permutation_search(16, 3, 9, trials=2000, seed=5)
        assert ks.mean() == pytest.approx(math.comb(16, 3), rel=0.10)

    @pytest.mark.parametrize("args, total, head, digest", [
        ((16, 3, 9, 10000, 0), 5578854, [661, 1038, 528, 129, 312, 336, 513, 200],
         "f99a6a4c6c534d89603d036a8e497f0457110b02970da77e353de1db7680e715"),
        ((64, 2, optimal_c1(64, 2), 300, 7), 609030, [2857, 68, 179, 3372, 8854, 652, 4743, 3138],
         "bccc261a567e150b386fb386fd4347f3052d46136718422ab3b31a4fa3358300"),
    ], ids=["n16w3", "n64w2"])
    def test_pinned_search_lengths(self, args, total, head, digest):
        # the stream indexes K as recorded when each stream entry became one
        # Philox word (sha256 of the little-endian int64 array)
        ks, idles = simulate_permutation_search(*args)
        assert int(ks.sum()) == total
        assert ks[:8].tolist() == head
        assert hashlib.sha256(ks.astype("<i8").tobytes()).hexdigest() == digest
        assert (idles == ks >> args[2]).all()


class TestInputHoles:
    def test_negative_stream_index(self):
        # the Philox counter wrapped to 2**64 - 4 and gave a permutation
        with pytest.raises(InvalidParameterError):
            subset_at(1, -1, 16, 3)

    def test_stream_index_past_the_philox_counter(self):
        # the counter block went into one uint64 word: a raw OverflowError
        assert subset_at(1, 4 * 2**64 - 1, 16, 3) == (2, 10, 12)
        with pytest.raises(InvalidParameterError):
            subset_at(1, 4 * 2**64, 16, 3)
        with pytest.raises(InvalidParameterError):
            permutation_recover(PermutationMessage(0, 2**70, 4), 16, 3, 1)

    def test_message_decoding_to_stream_index_0(self):
        # K is 1-based; this message recovered (0, 6, 10) from index -1
        with pytest.raises(InvalidParameterError):
            permutation_recover(PermutationMessage(0, 0, 4), 16, 3, 1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(InvalidParameterError):
            subset_at(seed, 0, 16, 3)
        for targets, n, w in (((0, 1, 2), 16, 3), (range(8), 8, 8), ((0,), 1, 1)):
            # C(n, w) = 1 needs no search, but its seed is checked all the same
            with pytest.raises(InvalidParameterError):
                permutation_search(targets, n, w, 4, rng_seed=seed)

    def test_largest_seed_is_accepted(self):
        got = subset_at(2**128 - 1, 0, 16, 3)
        assert len(got) == 3 and list(got) == sorted(set(got)) and got[-1] < 16

    @pytest.mark.parametrize("n, w, trials, seed", [
        (16, 3, -1, 0), (16, 3, 0, 0), (3, 4, 10, 0), (16, 0, 10, 0), (16, 3, 10, -1),
        (16, 3, 1, 2.5), (16, 3, 1.5, 1), (16, 3, True, 1), (16, 3, 1, False), (16.0, 3, 1, 1),
    ])
    def test_simulation_arguments(self, n, w, trials, seed):
        # raw ValueErrors from NumPy, or empty arrays with a nan mean (trials = 0);
        # raw TypeErrors from SeedSequence, numpy.empty or math.comb
        with pytest.raises(InvalidParameterError):
            simulate_permutation_search(n, w, 9, trials, seed)

    @pytest.mark.parametrize("kwargs", [
        {"rng_seed": 1.5}, {"rng_seed": True}, {"rng_seed": "1"}, {"c1": 4.0}, {"c1": 0},
        {"n": 16.0},
    ], ids=repr)
    def test_search_argument_types(self, kwargs):
        # rng_seed = 1.5 passed the key range check and raised a TypeError at
        # seed & (2**64 - 1); c1 = 4.0 raised one at 1 << c1
        args = {"n": 16, "w": 3, "c1": 4, "rng_seed": 1, **kwargs}
        with pytest.raises(InvalidParameterError):
            permutation_search((0, 1, 2), **args)

    @pytest.mark.parametrize("make", [
        lambda: CombinadicMessage(1.5, 3),  # decoded as the subset of rank 1
        lambda: CombinadicMessage(1, 2.5),
        lambda: CombinadicMessage(1, -1),
        lambda: PermutationMessage(1.5, 0, 3),
        lambda: PermutationMessage(1, 0.5, 3),
        lambda: PermutationMessage(1, 0, 2.5),  # raw TypeError at 1 << bit_width
        lambda: PermutationMessage(0, 0, -1),  # raw ValueError at 1 << bit_width
    ], ids=["fractional-rank", "fractional-width", "negative-width", "fractional-residual",
            "fractional-idle-periods", "fractional-stream-width", "negative-stream-width"])
    def test_message_fields_must_be_integers(self, make):
        with pytest.raises(InvalidParameterError):
            make()

    @pytest.mark.parametrize("call", [
        lambda: expected_idle_periods(16.0, 3, 4),  # raw TypeError from math.comb
        lambda: optimal_c1(16.0, 3),  # raw TypeError from math.comb
        lambda: mean_report_delay(16, 3, 2.5),  # raw TypeError from math.ldexp
        lambda: combinadic_encode([0.5, 1], 4),  # position 0.5 was truncated to 0
        lambda: combinadic_encode([0, 1], 4.0),  # raw TypeError from math.comb
        lambda: subset_at(1, 0.5, 4, 2),  # a fractional stream index was accepted
        lambda: unpack_bits(b"", -3),  # returned 0
        lambda: feedback_error_tolerance(math.nan),  # returned nan
        lambda: throughput_one_retx(16, math.nan),  # returned nan
    ], ids=["idle-float-n", "c1-float-n", "delay-float-c1", "fractional-position", "float-n",
            "fractional-index", "negative-width", "nan-message-bits", "nan-delay"])
    def test_integer_inputs_raise_typed_errors(self, call):
        with pytest.raises(InvalidParameterError):
            call()

    # every entry point that takes a w-of-n subset shape, with the least w it accepts
    SHAPE_CALLS = {
        "feedback_bit_width": (feedback_bit_width, 0),
        "check_search": (lambda n, w: check_search(n, w, 1), 1),
        "optimal_c1": (optimal_c1, 0),
        "combinadic_decode": (lambda n, w: combinadic_decode(CombinadicMessage(0, 0), n, w), 0),
        "subset_at": (lambda n, w: subset_at(1, 0, n, w), 1),
        "expected_idle_periods": (lambda n, w: expected_idle_periods(n, w, 1), 0),
    }

    @pytest.mark.parametrize("name", SHAPE_CALLS)
    @pytest.mark.parametrize("n, w, message", [
        (3, 4, "need {least} <= w <= n"),
        (-1, 2, "n must be at least {least}, got -1"),
        (2.5, 1, "n must be an integer, got 2.5"),
    ], ids=["w-above-n", "negative-n", "fractional-n"])
    def test_subset_shape_has_one_rule(self, name, n, w, message):
        # feedback_bit_width returned 1 for (3, 4) and raised a raw ValueError for
        # (-1, 2) and a raw TypeError for (2.5, 1); both decoders reported
        # "rank 0 >= C(3, 4) = 0"; the other three each wrote out their own rule
        call, least = self.SHAPE_CALLS[name]
        with pytest.raises(InvalidParameterError) as error:
            call(n, w)
        assert str(error.value) == message.format(least=least)

    def test_subset_shape_bounds(self):
        assert check_subset(16, 3, 1) == (16, 3, 560)
        assert check_search(np.int64(16), 3, np.uint8(9)) == (16, 3, 9, 560)
        assert check_subset(np.int64(4), np.uint8(0), 0) == (4, 0, 1)
        assert all(type(v) is int for v in check_subset(np.int64(4), np.uint8(0), 0))
        assert check_subset(0, 0, 0) == (0, 0, 1)
        with pytest.raises(InvalidParameterError, match="w must be at least 1"):
            check_subset(4, 0, 1)

    @pytest.mark.parametrize("data", ["ab", None, [1, 2]], ids=["str", "none", "list"])
    def test_payload_must_be_bytes_like(self, data):
        # "ab" and None raised raw TypeErrors; the list [1, 2] unpacked to 2
        with pytest.raises(InvalidParameterError):
            unpack_bits(data, 9)

    def test_numpy_integers_are_accepted(self):
        ks, _ = simulate_permutation_search(16, 3, 9, 20, 5)
        got, _ = simulate_permutation_search(
            np.int64(16), np.int32(3), np.uint8(9), np.int64(20), np.uint64(5)
        )
        assert (got == ks).all()
        msg = permutation_search((2, 9, 13), 16, 3, 9, rng_seed=1234)
        assert permutation_search(np.array([2, 9, 13]), 16, 3, 9, np.int64(1234)) == msg


class TestDelayModel:
    def test_idle_periods_closed_form(self):
        # against direct expectation over the geometric search length
        n, w, c1 = 12, 2, 4
        p = 1.0 / math.comb(n, w)
        m = 1 << c1
        direct = sum((k // m) * p * (1 - p) ** (k - 1) for k in range(1, 200_000))
        assert expected_idle_periods(n, w, c1) == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("n, w", [
        (16, 3), (64, 2), (200, 100), (1100, 300), (1200, 400), (2048, 600),
    ])
    def test_idle_periods_match_50_digit_oracle(self, n, w):
        # C(1200, 400) ~ 1e330 and 2**1781 lie beyond the float range
        mp = pytest.importorskip("mpmath")
        c1 = optimal_c1(n, w)
        with mp.workdps(50):
            l = -mp.log1p(-mp.mpf(1) / math.comb(n, w))
            a = mp.mpf(2) ** c1 * l
            expected = mp.exp(l - a) / -mp.expm1(-a)
        assert expected_idle_periods(n, w, c1) == pytest.approx(float(expected), rel=1e-12)

    def test_idle_periods_beyond_float_range(self):
        # C(2048, 600) / 2 ~ 8e535 idle periods; with 2**4000 checks per period
        # the search ends in the first one
        assert expected_idle_periods(2048, 600, 1) == math.inf
        assert expected_idle_periods(2048, 600, 4000) == 0.0
        assert expected_idle_periods(16, 16, 3) == 0.0
        with pytest.raises(InvalidParameterError):
            expected_idle_periods(16, 17, 3)

    def test_optimal_c1_examples(self):
        assert optimal_c1(16, 3) == 9
        assert optimal_c1(30, 1) == 4
        assert optimal_c1(10, 2) == 5  # C(10, 2) = 45
        assert optimal_c1(2, 1) == 1
        with pytest.raises(InvalidParameterError):
            optimal_c1(3, 4)  # C(3, 4) = 0

    def test_optimal_c1_minimizes_model_delay(self):
        n, w = 64, 2
        star = optimal_c1(n, w)
        delays = {c1: mean_report_delay(n, w, c1) for c1 in range(star - 2, star + 3)}
        assert min(delays, key=delays.get) == star

    def test_throughput_division(self):
        assert throughput_one_retx(64, 1.0) == 64.0
        with pytest.raises(InvalidParameterError):
            throughput_one_retx(64, 0.0)


class TestErrorTolerance:
    def test_single_bit(self):
        assert feedback_error_tolerance(1) == pytest.approx(1e-3, abs=1e-15)

    def test_long_message(self):
        assert feedback_error_tolerance(36) == pytest.approx(2.78e-5, abs=1e-7)

    def test_monotone_to_zero(self):
        values = [feedback_error_tolerance(c) for c in (1, 2, 8, 64, 1024)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_bound_is_tight(self):
        # intact-message probability equals the floor exactly at the bound
        for c in (1, 5, 36):
            pr = feedback_error_tolerance(c)
            assert (1 - pr) ** c == pytest.approx(0.999, rel=1e-12)
