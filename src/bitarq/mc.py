"""Monte Carlo ground truth for the bitwise retransmission schemes.

Three schemes are simulated:

* ``sequential`` - the deployed protocol: each round retransmits the W
  least reliable bits when the config has windows, otherwise the bits
  whose current combined reliability is below that round's threshold.
* ``preassigned`` - the analysis model: the number of retransmissions of
  every bit is fixed up front by quantizing its first-pass reliability
  against the threshold ladder.
* ``full_repetition`` - every round repeats every bit of every packet;
  nothing detects errors, so a correct packet is repeated too.

Work is partitioned into independent blocks: block i draws from an SFC64
generator keyed by the i-th child of ``SeedSequence(seed).spawn``, built as
``SeedSequence(seed, spawn_key=(i,))`` when the block starts. Results merge
by summation, so a report does not depend on the thread count or execution
order. A block draws its first pass as one (packets, N) matrix of standard
normals, which every scheme shares for a given seed. After that it draws
one normal per sum of copies that no decision splits: the k copies of a
bit at mean m per copy sum to k m + sqrt(k) Z.

* Full repetition (and d = 0) scales the first pass into each bit's sum of
  d + 1 copies and draws nothing more.
* The preassigned scheme fixes each bit's band b from its first pass, then
  draws, band by band for b < d and in packet order within a band, one
  normal per bit for its d - b copies.
* The sequential scheme decides on every partial sum, so each round draws
  one normal per retransmitted bit, in packet order.

A worker holds one block of ``BLOCK_PACKETS`` = 128 packets: the sample
matrix, a scratch matrix, one small unsigned integer per bit (a copy
count or a band index) and one round's temporaries.  At N = 1024 it peaks
at 2.3-4.1 MiB under ``tracemalloc``, so a thread (one per usable core by
default) costs about 5 MB.  On one thread of a 2-core Xeon VM, at 3 dB,
N = 1024 and d = 2, full repetition runs at 12-14 ns/bit, the preassigned
scheme on the ladder for 20% per round at 19-25 ns/bit and the sequential
window scheme (W = 205) at 27-38 ns/bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .model import SCHEMES, LinkModel, ProtocolConfig, check_integer, check_type, check_whole_packets

__all__ = ["SCHEMES", "TrialReport", "simulate", "compare_schemes"]

BLOCK_PACKETS = 128  # 1 MB of float64 samples at N = 1024


@dataclass(frozen=True)
class TrialReport:
    """Aggregate outcome of one simulation run."""

    bits_simulated: int
    bit_errors: int
    retransmitted_bits: tuple[int, ...]
    forward_rate_realized: float
    seed: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_simulated

    @property
    def stderr(self) -> float:
        """Binomial standard error of the BER estimate."""
        p = self.ber
        return math.sqrt(max(p * (1.0 - p), 1.0 / self.bits_simulated) / self.bits_simulated)


def _window_mask(rel: np.ndarray, w: int) -> np.ndarray:
    """Boolean mask of the w least-reliable bits per packet row.

    A row keeps the bits at or below its w-th smallest reliability.  A tie
    at the w-th place would keep more than w bits, so such a row alone takes
    ``np.argpartition``'s choice of exactly w; every row then selects what
    ``np.argpartition`` on the whole block selects.  Continuous samples tie
    with probability zero.
    """
    mask = rel <= np.partition(rel, w - 1, axis=1)[:, w - 1, None]
    if np.count_nonzero(mask) > len(rel) * w:  # every row keeps at least w
        for i in np.flatnonzero(np.count_nonzero(mask, axis=1) > w):
            mask[i] = False
            mask[i, np.argpartition(rel[i], w - 1)[:w]] = True
    return mask


def _combiner(config: ProtocolConfig, scheme: str, m: float):
    """One scheme's rounds on one block as a hook ``combine(rng, acc, state, spare, counts)``.

    On entry ``acc`` holds the first pass's standard normals.  The hook turns it
    into each bit's sum of copies at mean ``m`` per copy, drawing from ``rng``,
    and adds each round's retransmitted bits to ``counts[round]``.  It may
    overwrite ``state``, one small integer per bit that the scheme decides on,
    and ``spare``; both are shaped like ``acc``.  Copies land by ``np.add.at``:
    the indices are unique, so it equals a fancy ``+=`` at half the cost.  A
    config that lacks what the scheme decides on raises ConfigurationError.
    """
    us, ws, d = config.thresholds, config.windows, config.retransmissions
    if d == 0 or scheme == "full_repetition":

        def repeat(rng, acc: np.ndarray, state: np.ndarray, spare: np.ndarray, counts: np.ndarray):
            acc *= math.sqrt(d + 1)  # the sum of d + 1 copies is (d + 1) m + sqrt(d + 1) Z
            acc += (d + 1) * m
            counts += acc.size
        return repeat
    if scheme == "preassigned":
        if us is None:
            raise ConfigurationError("preassigned scheme needs the threshold ladder")

        def preassigned(rng, acc: np.ndarray, band: np.ndarray, spare: np.ndarray, counts: np.ndarray):
            acc += m
            rel0 = np.abs(acc, out=spare)
            band[...] = 0  # band #{j : |r0| > U_j} <= r iff |r0| <= U_r, as the ladder is sorted
            for u in us:
                band += rel0 > u
            flat, fresh = acc.reshape(-1), spare.reshape(-1)
            for b in range(d):  # band b gets k = d - b copies, summed as k m + sqrt(k) Z
                picked = np.flatnonzero(band == b)
                z = rng.standard_normal(out=fresh[:picked.size])
                z *= math.sqrt(d - b)
                z += (d - b) * m
                np.add.at(flat, picked, z)
                counts[b:] += picked.size  # round r retransmits every bit with band <= r
        return preassigned
    if ws is None and us is None:
        raise ConfigurationError("sequential scheme needs window sizes or thresholds")

    def sequential(rng, acc: np.ndarray, copies: np.ndarray, spare: np.ndarray, counts: np.ndarray):
        acc += m
        copies.fill(1)
        flat, fresh = acc.reshape(-1), spare.reshape(-1)
        for r in range(d):  # each round decides on the partial sums, so each copy is drawn
            rel = np.abs(acc, out=spare)
            if r:
                rel /= copies
            mask = rel <= us[r] if ws is None else _window_mask(rel, ws[r])
            copies += mask
            picked = np.flatnonzero(mask)
            del mask  # else the next round builds its mask beside this one
            z = rng.standard_normal(out=fresh[:picked.size])
            z += m
            np.add.at(flat, picked, z)
            counts[r] += picked.size

    return sequential


def simulate(
    config: ProtocolConfig,
    link: LinkModel,
    scheme: str,
    bits: int,
    seed: int,
    *,
    n_jobs: int | None = None,
) -> TrialReport:
    """Simulate packet transmission, retransmission and MRC combining.

    Transmits ``bits / packet_bits`` packets of antipodal symbols at the
    link's per-symbol SNR in the normalized sample space (AWGN only, by
    :meth:`bitarq.model.LinkModel.awgn_snr`), applies the
    selected scheme, and counts sign errors after the final combining.
    Deterministic for a given (config, link, scheme, bits, seed); every
    scheme sees the same first-pass samples for a given seed, and full
    repetition turns them into its copy sums, so it draws no more.
    """
    bits, seed = check_integer("bits", bits, 1), check_integer("seed", seed, 0)
    if n_jobs is None:  # every core this process may run on
        n_jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_jobs = check_integer("n_jobs", n_jobs, 1)
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    config = check_type("config", config, ProtocolConfig)
    link = check_type("link", link, LinkModel)
    n, d = config.packet_bits, config.retransmissions
    check_whole_packets(bits, n)
    m = math.sqrt(2.0 * link.awgn_snr())
    combine = _combiner(config, scheme, m)
    full, rest = divmod(bits // n, BLOCK_PACKETS)
    plan = [BLOCK_PACKETS] * full + [rest] * (rest > 0)
    jobs = min(n_jobs, len(plan))

    def worker(first: int) -> np.ndarray:
        """Errors, then each round's retransmitted bits, of blocks first, first + jobs, ...
        in one set of buffers: arrays allocated anew per block took page faults."""
        samples, scratch = np.empty((2, BLOCK_PACKETS, n))
        states = np.empty((BLOCK_PACKETS, n), np.min_scalar_type(d + 1))  # copies or bands
        totals = np.zeros(d + 1, dtype=np.int64)
        for idx in range(first, len(plan), jobs):
            rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(idx,))))
            acc = samples[:plan[idx]]
            rng.standard_normal(out=acc)
            combine(rng, acc, states[:plan[idx]], scratch[:plan[idx]], totals[1:])
            totals[0] += np.count_nonzero(acc < 0.0)
        return totals

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            totals = sum(pool.map(worker, range(jobs)))
    else:
        totals = worker(0)
    retransmitted = tuple(int(c) for c in totals[1:])
    rate = bits / (bits + sum(retransmitted))
    return TrialReport(bits, int(totals[0]), retransmitted, rate, seed)


def compare_schemes(
    config: ProtocolConfig, link: LinkModel, bits: int, seed: int = 0
) -> tuple[float, float]:
    """BER of the sequential and preassigned schemes on shared noise.

    Both schemes run on the same seed, so they share the first pass
    (common random numbers), which shrinks the variance of their
    difference; their later copies are drawn apart, as the preassigned
    scheme draws each bit's copy sum at once.  Each BER equals that of
    ``simulate`` with the scheme and seed.  Both schemes decide on the
    threshold ladder; defined for two retransmissions.
    """
    config = check_type("config", config, ProtocolConfig)
    if config.retransmissions != 2:
        raise ConfigurationError("scheme comparison is defined for two retransmissions")
    if config.thresholds is None:
        raise ConfigurationError("scheme comparison needs the threshold ladder")
    ladder = replace(config, windows=None)
    return tuple(simulate(ladder, link, s, bits, seed).ber for s in ("sequential", "preassigned"))
