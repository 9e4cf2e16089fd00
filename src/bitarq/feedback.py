"""Feedback-message codecs and error-tolerance analysis.

Two codecs report the retransmission set to the sender:

* combinadic: the W-subset of bit positions is ranked in colexicographic
  order and the rank is sent verbatim in ceil(log2(C(N, W))) bits.
* synchronized-permutation: sender and receiver step an identical
  pseudo-random permutation stream, advancing 2**C1 permutations per
  symbol period.  The receiver searches for a permutation that maps the
  target positions into the first W slots and reports only the stream
  index modulo 2**C1; the idle-period count carries the rest implicitly.

The permutation stream is counter based (keyed by the session seed), so
the sender can jump straight to any stream index without replaying.

Wire format: messages are bit-packed big endian, most significant bit
first, exactly C (or C1) bits wide, zero-padded at the tail of the last
byte.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError, SearchExhaustedError
from .model import check_integer, feedback_bit_width, round_half_away

__all__ = [
    "CombinadicMessage",
    "PermutationMessage",
    "feedback_bit_width",
    "combinadic_encode",
    "combinadic_decode",
    "pack_bits",
    "unpack_bits",
    "permutation_at",
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
        if self.rank < 0:
            raise InvalidParameterError("rank must be non-negative")

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
        if not 0 <= self.residual < (1 << self.bit_width):
            raise InvalidParameterError("residual must fit in bit_width bits")
        if self.idle_periods < 0:
            raise InvalidParameterError("idle_periods must be non-negative")

    @property
    def stream_index(self) -> int:
        """1-based index of the matching permutation in the shared stream."""
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
    if len(data) != (width + 7) // 8:
        raise InvalidParameterError("payload length does not match the width")
    return int.from_bytes(data, "big") >> (8 * len(data) - width)


# ---------------------------------------------------------------------------
# combinadic codec
# ---------------------------------------------------------------------------


def _check_positions(positions: Iterable[int], n: int) -> tuple[int, ...]:
    pos = tuple(sorted(int(p) for p in positions))
    if len(pos) == 0:
        raise InvalidParameterError("need at least one position")
    if len(set(pos)) != len(pos):
        raise InvalidParameterError("positions must be distinct")
    if pos[0] < 0 or pos[-1] >= n:
        raise InvalidParameterError("positions must lie in [0, n)")
    return pos


def combinadic_encode(positions: Iterable[int], n: int) -> CombinadicMessage:
    """Rank a sorted set of 0-based positions in colexicographic order."""
    pos = _check_positions(positions, n)
    rank = sum(math.comb(p, i + 1) for i, p in enumerate(pos))
    return CombinadicMessage(rank, feedback_bit_width(n, len(pos)))


def combinadic_decode(message: CombinadicMessage, n: int, w: int) -> tuple[int, ...]:
    """Invert :func:`combinadic_encode`; returns sorted 0-based positions."""
    n, w = check_integer("n", n, 0), check_integer("w", w, 0)
    total = math.comb(n, w)
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
# synchronized permutation stream
# ---------------------------------------------------------------------------

_WORDS_PER_COUNTER = 4
_SEARCH_CHUNK = 256  # permutations generated per search step; 256 measured faster than 512
# Largest C(n, w) searched.  At n = 64 a permutation costs about 0.85 us (2-core
# Xeon VM), so a mean search of 10**6 permutations takes about 0.85 s.
MAX_SEARCH_SUBSETS = 10**6
_SEARCH_MEANS = 64  # a search gives up after this many mean search lengths, C(n, w) each


def _blocks_per_permutation(n: int) -> int:
    return -(-n // _WORDS_PER_COUNTER)


_WORD = (1 << 64) - 1
_LOW_BITS = (1 << 11) - 1  # the bits of a Philox word that Generator.random() drops
_streams = threading.local()


def _stream_generator(seed: int, start_index: int, n: int) -> np.random.Generator:
    if not 0 <= seed < 1 << 128:
        raise InvalidParameterError(f"the session seed must lie in [0, 2**128), got {seed}")
    if start_index < 0:
        raise InvalidParameterError(f"stream indexes are non-negative, got {start_index}")
    counter = start_index * _blocks_per_permutation(n)
    # one generator per thread, re-keyed in place: constructing a Philox
    # builds an unused SeedSequence from OS entropy, which costs more than this
    g = getattr(_streams, "generator", None)
    if g is None:
        g = _streams.generator = np.random.Generator(np.random.Philox(key=0))
    g.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([counter, 0, 0, 0], dtype=np.uint64),
            "key": np.array([seed & _WORD, seed >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(_WORDS_PER_COUNTER, dtype=np.uint64),
        "buffer_pos": _WORDS_PER_COUNTER,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return g


def permutation_at(seed: int, index: int, n: int) -> np.ndarray:
    """The ``index``-th (0-based) permutation of 0..n-1 in the shared stream.

    Counter-based: any index is reachable directly.  Each permutation takes
    whole 4-word counter blocks, so one generator drawn sequentially yields
    the same permutations.
    """
    g = _stream_generator(seed, index, n)
    u = g.random(_blocks_per_permutation(n) * _WORDS_PER_COUNTER)[:n]
    return np.argsort(u)


def _check_search(n: int, w: int, c1: int) -> tuple[int, int, int]:
    """The search shape as ints; C(n, w) above :data:`MAX_SEARCH_SUBSETS` is rejected."""
    n, w, c1 = check_integer("n", n, 1), check_integer("w", w, 1), check_integer("c1", c1, 1)
    if w > n:
        raise InvalidParameterError("need 1 <= w <= n")
    if math.comb(n, w) > MAX_SEARCH_SUBSETS:
        raise InvalidParameterError(
            f"C({n}, {w}) exceeds the permutation-search limit {MAX_SEARCH_SUBSETS}; "
            "report the subset with the combinadic codec (combinadic_encode) instead"
        )
    return n, w, c1


def _search(targets: np.ndarray, n: int, w: int, seed: int) -> int:
    """1-based stream index K of the first permutation that maps the w
    ``targets`` into the leading w slots; gives up after 64 * C(n, w)."""
    is_other = np.ones(n, dtype=bool)
    is_other[targets] = False
    others = np.flatnonzero(is_other)
    max_tries = _SEARCH_MEANS * math.comb(n, w)
    words = _blocks_per_permutation(n) * _WORDS_PER_COUNTER
    raw = _stream_generator(seed, 0, n).bit_generator.random_raw
    base = 0
    while base < max_tries:
        count = min(_SEARCH_CHUNK, max_tries - base)
        u = raw(count * words).reshape(count, words)
        # a permutation's keys are Generator.random() doubles, (word >> 11) * 2**-53: the
        # targets fill the window iff no target key exceeds another key, that is iff the
        # largest target word is at most the smallest other word with its low 11 bits set
        top = u[:, targets].max(axis=1)
        hit = top <= (u[:, others].min(axis=1, initial=_WORD) | _LOW_BITS)
        first = int(hit.argmax())
        if hit[first]:
            return base + first + 1
        base += count
    raise SearchExhaustedError("no qualifying permutation found", max_tries)


def permutation_search(
    unreliable_positions: Iterable[int],
    n: int,
    w: int,
    c1: int,
    rng_seed: int,
) -> PermutationMessage:
    """Find the first stream permutation mapping the targets into the
    leading w slots and encode its index as (idle periods, residual).

    The stream index K is 1-based; on average C(n, w) permutations are
    searched, so C(n, w) above :data:`MAX_SEARCH_SUBSETS` is rejected.  It
    gives up after 64 * C(n, w): a search overruns that with probability
    about e^-64.  All w targets must land in the window.
    """
    n, w, c1 = _check_search(n, w, c1)
    rng_seed = check_integer("rng_seed", rng_seed, 0)
    targets = _check_positions(unreliable_positions, n)
    if len(targets) != w:
        raise InvalidParameterError("the target set must contain exactly w positions")
    k = _search(np.array(targets), n, w, rng_seed)
    return PermutationMessage(k % (1 << c1), k >> c1, c1)


def permutation_recover(
    message: PermutationMessage, n: int, w: int, rng_seed: int
) -> tuple[int, ...]:
    """Sender side: regenerate the reported permutation and read the window."""
    if message.stream_index < 1:
        raise InvalidParameterError("stream indexes are 1-based: the message decodes to 0")
    perm = permutation_at(rng_seed, message.stream_index - 1, n)
    return tuple(sorted(int(p) for p in perm[:w]))


def simulate_permutation_search(
    n: int, w: int, c1: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Search statistics over random target sets (exchangeable reliabilities).

    Returns the per-trial stream indexes K and idle-period counts I.
    """
    n, w, c1 = _check_search(n, w, c1)
    trials = check_integer("trials", trials, 1)
    seed = check_integer("seed", seed, 0)
    picker = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    session_seeds = picker.integers(0, 2**63, size=trials)
    ks = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        targets = picker.choice(n, size=w, replace=False)
        ks[t] = _search(targets, n, w, int(session_seeds[t]))
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
    if not 0 <= w <= n or c1 < 0:
        raise InvalidParameterError("need 0 <= w <= n and c1 >= 0")
    c = math.comb(n, w)
    if c == 1:  # the first permutation always qualifies: K = 1
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


def optimal_c1(n: int, w: int) -> int:
    """Residual width minimizing the expected report delay:
    round(-0.5 + log2(E[K])) with E[K] = C(n, w), at least 1."""
    if not 0 <= w <= n:
        raise InvalidParameterError("need 0 <= w <= n")
    return max(1, round_half_away(-0.5 + math.log2(math.comb(n, w))))


def throughput_one_retx(n: int, mean_idle_plus_one: float) -> float:
    """Forward throughput with one retransmission: n / E[delay periods]."""
    if mean_idle_plus_one <= 0:
        raise InvalidParameterError("the mean delay must be positive")
    return n / mean_idle_plus_one


def feedback_error_tolerance(c_bits: int) -> float:
    """Largest per-bit feedback error probability keeping a C-bit message
    intact with probability at least 0.999: 1 - 0.999**(1/C)."""
    if c_bits < 1:
        raise InvalidParameterError("c_bits must be positive")
    return -math.expm1(math.log(0.999) / c_bits)
