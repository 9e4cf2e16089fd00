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

Work is partitioned into independent blocks: block i draws from the i-th
child of ``SeedSequence(seed).spawn``, built as ``SeedSequence(seed,
spawn_key=(i,))`` when the block starts. Results merge by summation, so a
report does not depend on the thread count or execution order. A block
draws one normal per transmitted symbol: the first pass as one
(packets, N) matrix, then each round one normal per retransmitted bit
in packet order (a whole matrix when the round repeats every bit). For a
given seed every scheme shares the first pass, and a round's draws land
on the same bits in two schemes whenever their masks so far coincide.

A worker holds one block of ``BLOCK_PACKETS`` = 128 packets: the sample
matrix, a scratch matrix, one small unsigned integer per bit (a copy
count or a band index) and one round's temporaries.  At N = 1024 it peaks
at 2.3-4.1 MiB under ``tracemalloc``, so a thread (one per usable core by
default) costs about 5 MB; the sequential window scheme at d = 2 runs at
about 57 ns/bit on a 2-core Xeon VM.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .model import LinkModel, ProtocolConfig, check_integer, check_whole_packets

__all__ = ["SCHEMES", "TrialReport", "simulate", "compare_schemes"]

SCHEMES = ("sequential", "preassigned", "full_repetition")
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


def _selector(config: ProtocolConfig, scheme: str):
    """One scheme's rounds on one block as a hook ``select(r, acc, state, spare)``,
    or None when every round repeats every bit.

    The hook returns the mask of bits retransmitted in round ``r`` (0-based) given
    the combined samples ``acc``, and may overwrite ``spare``, shaped like ``acc``.
    In round 0, while ``acc`` holds the first pass, it builds ``state``: the one
    small integer per bit that the scheme decides on.  A config that lacks what
    the scheme decides on raises ConfigurationError.
    """
    us, ws = config.thresholds, config.windows
    if config.retransmissions == 0 or scheme == "full_repetition":
        return None
    if scheme == "preassigned":
        if us is None:
            raise ConfigurationError("preassigned scheme needs the threshold ladder")

        def preassigned(r: int, acc: np.ndarray, band: np.ndarray, spare: np.ndarray) -> np.ndarray:
            if r == 0:  # band #{j : |r0| > U_j} <= r iff |r0| <= U_r, as the ladder is sorted
                rel0 = np.abs(acc, out=spare)
                band[...] = 0
                for u in us:
                    band += rel0 > u
            return band <= r
        return preassigned
    if ws is None and us is None:
        raise ConfigurationError("sequential scheme needs window sizes or thresholds")

    def sequential(r: int, acc: np.ndarray, copies: np.ndarray, spare: np.ndarray) -> np.ndarray:
        rel = np.abs(acc, out=spare)
        if r:
            rel /= copies
        else:  # every bit has one copy so far
            copies.fill(1)
        mask = rel <= us[r] if ws is None else _window_mask(rel, ws[r])
        copies += mask
        return mask

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
    link's per-symbol SNR in the normalized sample space (AWGN only: a link
    with ``fading`` set raises ``ConfigurationError``), applies the
    selected scheme, and counts sign errors after the final combining.
    Deterministic for a given (config, link, scheme, bits, seed); every
    scheme sees the same first-pass samples for a given seed.
    """
    bits, seed = check_integer("bits", bits, 1), check_integer("seed", seed, 0)
    if n_jobs is None:  # every core this process may run on
        n_jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_jobs = check_integer("n_jobs", n_jobs, 1)
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    n, d = config.packet_bits, config.retransmissions
    check_whole_packets(bits, n)
    select = _selector(config, scheme)
    if link.fading is not None:
        raise ConfigurationError("the Monte Carlo does not simulate fading; give a link without it")
    m = math.sqrt(2.0 * link.snr_per_symbol)
    full, rest = divmod(bits // n, BLOCK_PACKETS)
    plan = [BLOCK_PACKETS] * full + [rest] * (rest > 0)
    jobs = min(n_jobs, len(plan))

    def worker(first: int) -> np.ndarray:
        """Errors, then each round's retransmitted bits, of blocks first, first + jobs, ...
        in one set of buffers: arrays allocated anew per block took page faults."""
        samples, scratch = np.empty((2, BLOCK_PACKETS, n))
        states = np.empty((BLOCK_PACKETS, n), np.min_scalar_type(d + 1))  # copies or bands
        fresh, totals = scratch.reshape(-1), np.zeros(d + 1, dtype=np.int64)
        for idx in range(first, len(plan), jobs):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(idx,))))
            acc, state, spare = samples[:plan[idx]], states[:plan[idx]], scratch[:plan[idx]]
            rng.standard_normal(out=acc)
            acc += m
            for r in range(d):
                # one fresh normal per retransmitted bit (all when the round repeats every bit), in
                # packet order; the indices are unique, so add.at equals a fancy += at half the cost
                picked = None if select is None else np.flatnonzero(select(r, acc, state, spare))
                z = rng.standard_normal(out=fresh[:acc.size if picked is None else picked.size])
                z += m
                if picked is None:
                    acc += z.reshape(acc.shape)
                else:
                    np.add.at(acc.reshape(-1), picked, z)
                totals[r + 1] += z.size
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

    Both schemes run on the same seed, so they share the first pass, and
    a round's copies land on the same bits while their masks coincide
    (common random numbers), which shrinks the variance of their
    difference; each BER equals that of ``simulate`` with the scheme and
    seed. Both schemes decide on the threshold ladder; defined for two
    retransmissions.
    """
    if config.retransmissions != 2:
        raise ConfigurationError("scheme comparison is defined for two retransmissions")
    if config.thresholds is None:
        raise ConfigurationError("scheme comparison needs the threshold ladder")
    ladder = replace(config, windows=None)
    return tuple(simulate(ladder, link, s, bits, seed).ber for s in ("sequential", "preassigned"))
