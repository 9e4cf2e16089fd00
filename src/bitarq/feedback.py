"""Feedback-message codecs and error-tolerance analysis.

Two codecs report the retransmission set to the sender:

* combinadic: the W-subset of bit positions is ranked in colexicographic
  order and the rank is sent verbatim in ceil(log2(C(N, W))) bits.
* synchronized stream: sender and receiver step an identical stream of
  W-subsets, 2**C1 entries per symbol period.  Entry i is word i of a Philox
  stream keyed by the session seed, mapped to a colex rank by multiply-shift,
  so the sender jumps straight to any entry.  The receiver sends the index K
  of the first entry naming its targets modulo 2**C1; the idle-period count
  carries the rest; K is geometric with mean C(N, W), as the models assume.

Wire format: messages are bit-packed big endian, most significant bit first,
exactly C (or C1) bits wide, zero-padded at the tail of the last byte.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError, SearchExhaustedError
from .model import (MAX_SEARCH_SUBSETS, check_integer, check_real, check_search, check_subset, check_type,
                    feedback_bit_width, optimal_c1)

__all__ = [
    "CombinadicMessage",
    "PermutationMessage",
    "feedback_bit_width",
    "combinadic_encode",
    "combinadic_decode",
    "pack_bits",
    "unpack_bits",
    "subset_at",
    "permutation_search",
    "MAX_SEARCH_SUBSETS",
    "permutation_recover",
    "simulate_permutation_search",
    "expected_idle_periods",
    "mean_report_delay",
    "optimal_c1",
    "throughput_one_retx",
    "feedback_error_tolerance",
]


@dataclass(frozen=True)
class CombinadicMessage:
    """Subset rank plus its exact wire width in bits."""

    rank: int
    bit_width: int

    def __post_init__(self):
        check_integer("rank", self.rank, 0)
        check_integer("bit_width", self.bit_width, 0)

    def to_bytes(self) -> bytes:
        return pack_bits(self.rank, self.bit_width)


@dataclass(frozen=True)
class PermutationMessage:
    """Residual stream index (C1 bits on the wire) plus idle-period count.

    The idle periods are conveyed by timing, not by payload bits.
    """

    residual: int
    idle_periods: int
    bit_width: int

    def __post_init__(self):
        width = check_integer("bit_width", self.bit_width, 0)
        if check_integer("residual", self.residual, 0) >= 1 << width:
            raise InvalidParameterError("residual must fit in bit_width bits")
        check_integer("idle_periods", self.idle_periods, 0)

    @property
    def stream_index(self) -> int:
        """1-based index of the matching entry in the shared stream."""
        return (self.idle_periods << self.bit_width) + self.residual

    def to_bytes(self) -> bytes:
        return pack_bits(self.residual, self.bit_width)


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------


def pack_bits(value: int, width: int) -> bytes:
    """Big-endian bit packing of ``value`` into exactly ``width`` bits."""
    value, width = check_integer("value", value, 0), check_integer("width", width, 0)
    if width < value.bit_length():
        raise InvalidParameterError("value does not fit in the given width")
    nbytes = (width + 7) // 8
    return (value << (8 * nbytes - width)).to_bytes(nbytes, "big")


def unpack_bits(data: bytes, width: int) -> int:
    width = check_integer("width", width, 0)
    data = bytes(check_type("data", data, (bytes, bytearray, memoryview)))  # a view's len counts items
    if len(data) != (width + 7) // 8:
        raise InvalidParameterError("payload length does not match the width")
    return int.from_bytes(data, "big") >> (8 * len(data) - width)


# ---------------------------------------------------------------------------
# combinadic codec
# ---------------------------------------------------------------------------


def _check_positions(positions: Iterable[int], n: int) -> tuple[int, ...]:
    pos = tuple(sorted(check_integer("position", p, 0) for p in positions))
    if len(set(pos)) != len(pos):
        raise InvalidParameterError("positions must be distinct")
    if pos and pos[-1] >= n:
        raise InvalidParameterError("positions must lie in [0, n)")
    return pos


def combinadic_encode(positions: Iterable[int], n: int) -> CombinadicMessage:
    """Rank a set of 0-based positions in colexicographic order (the empty set: 0 in 0 bits)."""
    n = check_integer("n", n, 1)
    pos = _check_positions(positions, n)
    rank = sum(math.comb(p, i + 1) for i, p in enumerate(pos))
    return CombinadicMessage(rank, feedback_bit_width(n, len(pos)))


def combinadic_decode(message: CombinadicMessage, n: int, w: int) -> tuple[int, ...]:
    """Invert :func:`combinadic_encode`; returns sorted 0-based positions."""
    n, w, total = check_subset(n, w, 0)
    message = check_type("message", message, CombinadicMessage)
    if message.rank >= total:
        raise InvalidParameterError(f"rank {message.rank} >= C({n}, {w}) = {total}")
    rank = message.rank
    out = []
    c = n - 1
    for i in range(w, 0, -1):
        while math.comb(c, i) > rank:
            c -= 1
        out.append(c)
        rank -= math.comb(c, i)
        c -= 1
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# synchronized subset stream
# ---------------------------------------------------------------------------

_WORDS_PER_COUNTER = 4
_SEARCH_MEANS = 64  # a search gives up after this many mean search lengths, C(n, w) each

_streams = threading.local()


def _stream_generator(seed: int, block: int) -> np.random.Generator:
    """The session's keyed Philox generator, set to counter ``block``."""
    if not 0 <= seed < 1 << 128:
        raise InvalidParameterError(f"the session seed must lie in [0, 2**128), got {seed}")
    # one generator and one state dict per thread, re-keyed in place: constructing a
    # Philox builds an unused SeedSequence from OS entropy, and building a new state
    # dict with three arrays per search cost twice as much as writing two into this one
    g = getattr(_streams, "generator", None)
    if g is None:
        g = _streams.generator = np.random.Generator(np.random.Philox(key=0))
        _streams.state = g.bit_generator.state  # an empty buffer: the next word is fresh
    state = _streams.state
    state["state"]["counter"][0] = block
    key = state["state"]["key"]
    key[0], key[1] = seed % 2**64, seed >> 64
    g.bit_generator.state = state
    return g


def subset_at(seed: int, index: int, n: int, w: int) -> tuple[int, ...]:
    """The ``index``-th (0-based) w-subset of the shared stream, sorted.

    Entry i is word x_i of the session's keyed Philox stream (counter block
    i // 4, word i % 4): the subset of colex rank (x_i * C(n, w)) >> 64.
    The counter block is one uint64, so the stream ends at index 4 * 2**64.
    """
    seed, index = check_integer("seed", seed, 0), check_integer("index", index, 0)
    if index >= _WORDS_PER_COUNTER << 64:
        raise InvalidParameterError(f"stream indexes stop at 4 * 2**64, got {index}")
    n, w, total = check_subset(n, w, 1)
    block, word = divmod(index, _WORDS_PER_COUNTER)
    x = int(_stream_generator(seed, block).bit_generator.random_raw(_WORDS_PER_COUNTER)[word])
    rank = (x * total) >> 64
    return combinadic_decode(CombinadicMessage(rank, feedback_bit_width(n, w)), n, w)


def _rank_words(rank: int, total: int) -> tuple[int, int]:
    """[lo, hi): the 64-bit words x with (x * total) >> 64 == rank."""
    return -(-(rank << 64) // total), -(-((rank + 1) << 64) // total)


def _search(rank: int, total: int, seed: int) -> int:
    """1-based stream index K of the first entry of colex rank ``rank`` among
    ``total`` = C(n, w) subsets; gives up after 64 * C(n, w) entries."""
    raw = _stream_generator(seed, 0).bit_generator.random_raw
    if total == 1:  # every word names the only subset, and hi - lo = 2**64 fits no uint64
        return 1
    lo, hi = _rank_words(rank, total)
    lo, width = np.uint64(lo), np.uint64(hi - lo)
    max_tries = _SEARCH_MEANS * total
    chunk = max(256, 2 * total)  # most searches end in the first chunk
    base = 0
    while base < max_tries:
        count = min(chunk, max_tries - base)
        u = raw(count)
        hit = np.subtract(u, lo, out=u) < width  # words below lo wrap past width
        first = int(hit.argmax())
        if hit[first]:
            return base + first + 1
        base += count
    raise SearchExhaustedError("no qualifying subset found", max_tries)


def permutation_search(
    unreliable_positions: Iterable[int], n: int, w: int, c1: int, rng_seed: int
) -> PermutationMessage:
    """Encode the index of the first stream entry naming the w target
    positions as (idle periods, residual).

    The 1-based index K is geometric with mean C(n, w), so C(n, w) above
    :data:`MAX_SEARCH_SUBSETS` is rejected.  It gives up after 64 * C(n, w)
    entries, which a search overruns with probability about e^-64.
    """
    n, w, c1, total = check_search(n, w, c1)
    rng_seed = check_integer("rng_seed", rng_seed, 0)
    targets = _check_positions(unreliable_positions, n)
    if len(targets) != w:
        raise InvalidParameterError("the target set must contain exactly w positions")
    k = _search(combinadic_encode(targets, n).rank, total, rng_seed)
    return PermutationMessage(k % (1 << c1), k >> c1, c1)


def permutation_recover(message: PermutationMessage, n: int, w: int, rng_seed: int) -> tuple[int, ...]:
    """Sender side: jump to the reported stream entry and unrank its subset."""
    message = check_type("message", message, PermutationMessage)
    if message.stream_index < 1:
        raise InvalidParameterError("stream indexes are 1-based: the message decodes to 0")
    return subset_at(rng_seed, message.stream_index - 1, n, w)


def simulate_permutation_search(
    n: int, w: int, c1: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Search statistics over random target sets (exchangeable reliabilities).

    Returns the per-trial stream indexes K and idle-period counts I.
    """
    n, w, c1, total = check_search(n, w, c1)
    trials, seed = check_integer("trials", trials, 1), check_integer("seed", seed, 0)
    picker = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    session_seeds = picker.integers(0, 2**63, size=trials).tolist()
    ranks = picker.integers(0, total, size=trials).tolist()
    ks = np.array([_search(r, total, s) for r, s in zip(ranks, session_seeds)], dtype=np.int64)
    return ks, ks >> c1


# ---------------------------------------------------------------------------
# delay and throughput models
# ---------------------------------------------------------------------------


def expected_idle_periods(n: int, w: int, c1: int) -> float:
    """E[idle periods] for a geometric search checked 2**c1 per period.

    K is geometric with success probability p = 1/C(n, w); the idle count is
    floor(K / 2**c1). With l = -log(1 - p) and a = 2**c1 * l its mean is
    exp(l - a) / (1 - exp(-a)). Scaling by powers of two keeps this finite
    when C(n, w) or 2**c1 lies beyond the float range.
    """
    c, c1 = check_subset(n, w, 0)[2], check_integer("c1", c1, 0)
    if c == 1:  # the first stream entry always qualifies: K = 1
        return float(c1 == 0)
    k = c.bit_length()
    # l * 2**k is a normal float; once 1/C is tiny, l = 1/C to a relative 1/(2C)
    l_k = math.ldexp(-math.log1p(-1.0 / c), k) if k < 1000 else (1 << k) / c
    try:
        a = math.ldexp(l_k, c1 - k)
    except OverflowError:  # 2**c1 >> C(n, w): exp(-a) underflows
        return 0.0
    if a < 1e-300:  # 1 - exp(-a) = a and exp(l - a) = 1
        try:
            return math.ldexp(1.0 / l_k, k - c1)
        except OverflowError:
            return math.inf
    return math.exp(math.ldexp(l_k, -k) - a) / -math.expm1(-a)


def mean_report_delay(n: int, w: int, c1: int) -> float:
    """Expected symbol periods from search start to retransmission start:
    idle periods, one reporting period, and the c1 feedback bit periods."""
    return expected_idle_periods(n, w, c1) + 1.0 + c1


def throughput_one_retx(n: int, mean_delay: float) -> float:
    """Forward throughput with one retransmission: n / E[delay periods]."""
    return check_integer("n", n, 1) / check_real("mean_delay", mean_delay, 0.0, math.inf, "(]")


def feedback_error_tolerance(c_bits: int) -> float:
    """Largest per-bit feedback error probability keeping a C-bit message
    intact with probability at least 0.999: 1 - 0.999**(1/C)."""
    return -math.expm1(math.log(0.999) / check_integer("c_bits", c_bits, 1))
