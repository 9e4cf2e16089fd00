"""Monte Carlo ground truth for the bitwise retransmission schemes.

Three schemes are simulated:

* ``sequential`` - the deployed protocol: each round retransmits the bits
  whose current combined reliability is below that round's threshold (or
  the W least reliable, for the fixed-rate / fixed-window strategies).
* ``preassigned`` - the analysis model: the number of retransmissions of
  every bit is fixed up front by quantizing its first-pass reliability
  against the threshold ladder.
* ``full_repetition`` - the stop-and-wait baseline: every round repeats
  the whole packet.

Work is partitioned into independent blocks, each driven by a sub-stream
derived from (seed, block index); results merge by summation, so a report
is reproducible regardless of block count or execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .model import FixedRate, FixedThreshold, FixedWindow, LinkModel, ProtocolConfig

__all__ = ["SCHEMES", "TrialReport", "simulate", "compare_schemes"]

SCHEMES = ("sequential", "preassigned", "full_repetition")


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


def _validate(config: ProtocolConfig, scheme: str, bits: int) -> None:
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    n, d = config.packet_bits, config.retransmissions
    if bits < n or bits % n != 0:
        raise InvalidParameterError("bits must be a positive multiple of packet_bits")
    if d == 0:
        return
    if scheme == "full_repetition":
        if isinstance(config.strategy, FixedThreshold):
            raise ConfigurationError(
                "stop-and-wait repetition ignores thresholds; "
                "fixed-threshold strategy does not apply"
            )
        return
    if scheme == "preassigned":
        if config.thresholds is None:
            raise ConfigurationError("preassigned scheme needs the threshold ladder")
        return
    # sequential
    if isinstance(config.strategy, (FixedRate, FixedWindow)) or (
        config.strategy is None and config.windows is not None
    ):
        if config.windows is None:
            raise ConfigurationError("window-based sequential scheme needs window sizes")
    elif config.thresholds is None:
        raise ConfigurationError("threshold-based sequential scheme needs thresholds")


def _window_mask(rel: np.ndarray, w: int) -> np.ndarray:
    """Boolean mask of the w least-reliable bits per packet row."""
    idx = np.argpartition(rel, w - 1, axis=1)[:, :w]
    mask = np.zeros(rel.shape, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


def _round_mask(
    config: ProtocolConfig,
    scheme: str,
    rnd: int,
    acc: np.ndarray,
    copies: np.ndarray,
    band_index: np.ndarray | None,
    initial_rel: np.ndarray | None,
    resort_each_round: bool,
) -> np.ndarray:
    if scheme == "full_repetition":
        return np.ones(acc.shape, dtype=bool)
    if scheme == "preassigned":
        return band_index <= rnd - 1
    rel = np.abs(acc) / copies if resort_each_round else initial_rel
    if config.windows is not None and not isinstance(config.strategy, FixedThreshold):
        return _window_mask(rel, config.windows[rnd - 1])
    return rel <= config.thresholds[rnd - 1]


def _run_block(
    config: ProtocolConfig,
    m: float,
    scheme: str,
    packets: int,
    rng: np.random.Generator,
    randomize_data: bool,
    resort_each_round: bool,
) -> tuple[int, np.ndarray]:
    n, d = config.packet_bits, config.retransmissions
    if randomize_data:
        signs = rng.choice(np.array([-1.0, 1.0]), size=(packets, n))
    else:
        signs = np.ones((packets, n))
    tx = m * signs
    acc = tx + rng.standard_normal((packets, n))
    copies = np.ones((packets, n), dtype=np.int64)
    counts = np.zeros(d, dtype=np.int64)

    band_index = None
    initial_rel = None
    if scheme == "preassigned" and d > 0:
        band_index = np.searchsorted(
            np.asarray(config.thresholds), np.abs(acc), side="left"
        )
    if not resort_each_round:
        initial_rel = np.abs(acc)

    for rnd in range(1, d + 1):
        mask = _round_mask(
            config, scheme, rnd, acc, copies, band_index, initial_rel, resort_each_round
        )
        counts[rnd - 1] = int(mask.sum())
        noise = rng.standard_normal((packets, n))
        acc += mask * (tx + noise)
        copies += mask
    errors = int(np.count_nonzero(acc * signs < 0.0))
    return errors, counts


def _block_plan(total_packets: int, block_packets: int) -> list[int]:
    plan = []
    left = total_packets
    while left > 0:
        take = min(left, block_packets)
        plan.append(take)
        left -= take
    return plan


def simulate(
    config: ProtocolConfig,
    link: LinkModel,
    scheme: str,
    bits: int,
    seed: int,
    *,
    randomize_data: bool = False,
    resort_each_round: bool = True,
    n_jobs: int = 1,
    block_packets: int = 2048,
) -> TrialReport:
    """Simulate packet transmission, retransmission and MRC combining.

    Transmits ``bits / packet_bits`` packets of antipodal symbols at the
    link's per-symbol SNR in the normalized sample space, applies the
    selected scheme, and counts sign errors after the final combining.
    Deterministic for a given (config, link, scheme, bits, seed).

    ``resort_each_round=False`` makes the window-based sequential scheme
    reuse the first-pass reliability ordering instead of re-sorting the
    combined reliabilities (a sensitivity-check variant).
    """
    _validate(config, scheme, bits)
    m = math.sqrt(2.0 * link.snr_per_symbol)
    n, d = config.packet_bits, config.retransmissions
    total_packets = bits // n
    plan = _block_plan(total_packets, block_packets)
    children = np.random.SeedSequence(seed).spawn(len(plan))

    def work(idx: int) -> tuple[int, np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(children[idx]))
        return _run_block(
            config, m, scheme, plan[idx], rng, randomize_data, resort_each_round
        )

    if n_jobs > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(work, range(len(plan))))
    else:
        results = [work(i) for i in range(len(plan))]

    errors = sum(r[0] for r in results)
    counts = np.sum([r[1] for r in results], axis=0) if d else np.zeros(0, dtype=np.int64)
    retransmitted = tuple(int(c) for c in counts)
    rate = bits / (bits + sum(retransmitted))
    return TrialReport(bits, errors, retransmitted, rate, seed)


def compare_schemes(
    config: ProtocolConfig,
    link: LinkModel,
    bits: int,
    seed: int = 0,
    block_packets: int = 2048,
) -> tuple[float, float]:
    """BER of the sequential and preassigned schemes on shared noise.

    Both schemes consume identical sample matrices (common random numbers),
    which shrinks the variance of their difference; defined for the
    two-retransmission threshold comparison.
    """
    if config.retransmissions != 2:
        raise ConfigurationError("scheme comparison is defined for two retransmissions")
    if config.thresholds is None:
        raise ConfigurationError("scheme comparison needs the threshold ladder")
    n, d = config.packet_bits, config.retransmissions
    if bits < n or bits % n != 0:
        raise InvalidParameterError("bits must be a positive multiple of packet_bits")
    m = math.sqrt(2.0 * link.snr_per_symbol)
    us = np.asarray(config.thresholds)
    total_packets = bits // n
    plan = _block_plan(total_packets, block_packets)
    children = np.random.SeedSequence(seed).spawn(len(plan))

    err_seq = err_pre = 0
    for idx, packets in enumerate(plan):
        rng = np.random.Generator(np.random.PCG64(children[idx]))
        r0 = m + rng.standard_normal((packets, n))
        noise = [rng.standard_normal((packets, n)) for _ in range(d)]

        acc = r0.copy()
        copies = np.ones((packets, n), dtype=np.int64)
        for rnd in range(1, d + 1):
            mask = np.abs(acc) / copies <= us[rnd - 1]
            acc += mask * (m + noise[rnd - 1])
            copies += mask
        err_seq += int(np.count_nonzero(acc < 0.0))

        band = np.searchsorted(us, np.abs(r0), side="left")
        acc = r0.copy()
        for rnd in range(1, d + 1):
            mask = band <= rnd - 1
            acc += mask * (m + noise[rnd - 1])
        err_pre += int(np.count_nonzero(acc < 0.0))

    return err_seq / bits, err_pre / bits
