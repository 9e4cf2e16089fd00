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
    permutation_at,
    permutation_recover,
    permutation_search,
    simulate_permutation_search,
    throughput_one_retx,
    unpack_bits,
)


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
        with pytest.raises(InvalidParameterError):
            combinadic_encode([], 4)

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


class TestPermutationStream:
    def test_jump_equals_sequence(self):
        # one keyed Philox generator drawn sequentially, in uneven chunks as
        # permutation_search draws it, yields permutation_at(seed, i, n):
        # every permutation takes whole 4-word counter blocks, the unused
        # words of the last block (n = 10, 13) included
        seed = 77
        for n in (10, 13, 16):
            words = -(-n // 4) * 4
            g = np.random.Generator(np.random.Philox(key=seed))
            keys = np.concatenate([g.random(k * words) for k in (1, 7, 256, 736)])
            keys = keys.reshape(-1, words)[:, :n]
            assert len(keys) == 1000
            for i, u in enumerate(keys):
                assert (np.argsort(u) == permutation_at(seed, i, n)).all(), (n, i)

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 + 77, 2**128 - 1])
    def test_both_key_words_follow_the_seed(self, seed):
        # the reused generator is re-keyed in place; its 128-bit key must
        # match a Philox constructed from the same seed
        for index in (0, 1, 999):
            g = np.random.Generator(np.random.Philox(key=seed, counter=[index * 4, 0, 0, 0]))
            assert (np.argsort(g.random(16)) == permutation_at(seed, index, 16)).all()

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
        a = permutation_at(5, 0, 16)
        b = permutation_at(5, 1, 16)
        assert not (a == b).all()

    def test_whole_packet_window_hits_first_permutation(self):
        msg = permutation_search(range(8), 8, 8, 3, rng_seed=99)
        assert msg.stream_index == 1
        assert msg.idle_periods == 0
        assert msg.residual == 1

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

    def test_search_cap(self, monkeypatch):
        # with seed 1 the first match is permutation 608, past one mean search of C(16, 3) = 560
        monkeypatch.setattr(feedback, "_SEARCH_MEANS", 1)
        with pytest.raises(SearchExhaustedError) as exc:
            permutation_search((0, 2, 4), 16, 3, 4, rng_seed=1)
        assert exc.value.tried == 560

    def test_default_budget_is_64_mean_searches(self, monkeypatch):
        class NeverMatches:  # position 0 always draws the largest key
            class bit_generator:
                @staticmethod
                def random_raw(size):
                    return np.tile(np.array([2**64 - 1, 0, 0, 0], dtype=np.uint64), size // 4)

        monkeypatch.setattr(feedback, "_stream_generator", lambda *args: NeverMatches())
        with pytest.raises(SearchExhaustedError) as exc:
            permutation_search((0,), 2, 1, 1, rng_seed=1)
        assert exc.value.tried == 64 * math.comb(2, 1)

    def test_double_keys_are_raw_words_shifted(self):
        # the search compares raw words on the premise that a key is
        # random() = (word >> 11) * 2**-53; a NumPy that changed it fails here
        for seed, index in ((5, 0), (2**100 + 3, 777)):
            doubles = feedback._stream_generator(seed, index, 16).random(4096)
            words = feedback._stream_generator(seed, index, 16).bit_generator.random_raw(4096)
            assert (doubles == (words >> 11) * 2.0**-53).all()

    def test_words_tied_as_keys_count_as_a_hit(self, monkeypatch):
        # permutation 1: the target word is one key above the other word;
        # permutation 2: it differs only in the 11 low bits, so both keys tie
        low = 0x5A5A_5A5A_5A5A_5800

        class Planted:
            class bit_generator:
                @staticmethod
                def random_raw(size):
                    rows = [[low + 2048, low, 0, 0], [low | 2047, low, 0, 0]]
                    return np.array(rows * (size // 8), dtype=np.uint64).reshape(-1)

        assert (low + 2048) >> 11 > low >> 11 == (low | 2047) >> 11
        monkeypatch.setattr(feedback, "_stream_generator", lambda *args: Planted())
        assert permutation_search((0,), 2, 1, 1, rng_seed=1).stream_index == 2

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
        ((16, 3, 9, 10000, 0), 5579763, [179, 501, 421, 67, 34, 373, 715, 1032],
         "d6e72ffcb971aa29bc75eada78e18bec824bc356d618b67438b9e46e2f33ac69"),
        ((64, 2, optimal_c1(64, 2), 300, 7), 545034, [436, 414, 611, 1688, 618, 3218, 243, 1679],
         "263581bc14ebed1bec033cc62464a57aa3eddde25a3fd1c538686d5572ed816e"),
    ], ids=["n16w3", "n64w2"])
    def test_pinned_search_lengths(self, args, total, head, digest):
        # the stream indexes K as recorded before the search drew all its
        # chunks from one generator (sha256 of the little-endian int64 array)
        ks, idles = simulate_permutation_search(*args)
        assert int(ks.sum()) == total
        assert ks[:8].tolist() == head
        assert hashlib.sha256(ks.astype("<i8").tobytes()).hexdigest() == digest
        assert (idles == ks >> args[2]).all()


class TestInputHoles:
    def test_negative_stream_index(self):
        # the Philox counter wrapped to 2**64 - 4 and gave a permutation
        with pytest.raises(InvalidParameterError):
            permutation_at(1, -1, 16)

    def test_message_decoding_to_stream_index_0(self):
        # K is 1-based; this message recovered (0, 6, 10) from index -1
        with pytest.raises(InvalidParameterError):
            permutation_recover(PermutationMessage(0, 0, 4), 16, 3, 1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(InvalidParameterError):
            permutation_at(seed, 0, 16)
        with pytest.raises(InvalidParameterError):
            permutation_search((0, 1, 2), 16, 3, 4, rng_seed=seed)

    def test_largest_seed_is_accepted(self):
        assert sorted(permutation_at(2**128 - 1, 0, 16)) == list(range(16))

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
