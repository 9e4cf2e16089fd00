"""Sensor-uplink application layer: technology BER fits, segmented designs,
packet-content scheduling and the capacity bound.

A fusion access point collects packets from L sensor nodes over TDMA/TDD
(L uplink slots plus one downlink slot for broadcast retransmission
requests).  Uplink packets are filled FIFO: retransmission spans for
previously completed blocks first, then fresh data bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import InvalidParameterError, NumericFailureError
from .model import check_fit, check_integer, check_real, check_subset, check_type

__all__ = [
    "Technology",
    "ZIGBEE",
    "WIFI",
    "BLUETOOTH",
    "TECHNOLOGIES",
    "ber_curve",
    "required_snr",
    "SegmentedDesign",
    "segment_feasibility",
    "FeasibilityReport",
    "feasible",
    "DataSpan",
    "RetxSpan",
    "FusionPlan",
    "schedule_uplink",
    "serialize_plan",
    "max_sensor_nodes",
]


@dataclass(frozen=True)
class Technology:
    """Radio technology described by its fitted BER curve and packet size.

    ``ber_fit`` holds (coefficient, rate) pairs of a sum-of-exponentials
    fit P_b(snr) = sum(c * exp(-k * snr)); snr is linear.
    """

    name: str
    ber_fit: tuple[tuple[float, float], ...]
    packet_bits: int

    def __post_init__(self):
        object.__setattr__(self, "ber_fit", check_fit("ber_fit", self.ber_fit))  # hashable, as checked
        check_integer("packet_bits", self.packet_bits, 1)


# The bluetooth fit carries a duplicated exponential term; it is kept as
# published because the tabulated SNR operating points reproduce only with
# the doubled coefficient (see README).
ZIGBEE = Technology("zigbee", ((1.5203, 9.5611),), 1064)
WIFI = Technology("wifi", ((10.0, 3.4535), (1.1066, 2.0247)), 12192)
BLUETOOTH = Technology("bluetooth", ((0.2436, 0.4997), (0.2436, 0.4997)), 2048)
TECHNOLOGIES = {t.name: t for t in (ZIGBEE, WIFI, BLUETOOTH)}

_FIT_BER_RANGE = (1e-6, 1e-2)


def ber_curve(tech: Technology, snr: float) -> float:
    """Fitted link BER at a linear SNR."""
    snr = check_real("snr", snr, 0.0, math.inf, "[]")
    tech = check_type("tech", tech, Technology)
    return sum(c * math.exp(-k * snr) for c, k in tech.ber_fit)


def required_snr(tech: Technology, target_ber: float) -> float:
    """SNR in dB at which the fitted BER equals the target.

    Valid within the fit range [1e-6, 1e-2].  The log of the fit is convex
    and decreasing in the SNR (a log-sum-exp of linear terms), so Newton
    steps on it taken from SNR 0 rise monotonically to the root: the root
    stays bracketed between the iterate and the next step's end.  They stop
    once a step is below 1e-14 + 1e-15 * snr; convergence is quadratic, so
    the result is far closer than that.
    """
    target_ber = check_real("target BER", target_ber, *_FIT_BER_RANGE, "[]")
    if ber_curve(tech, 0.0) <= target_ber:
        raise InvalidParameterError(f"the {tech.name} fit never exceeds BER {target_ber}")
    log_target = math.log(target_ber)
    snr = 0.0
    for _ in range(100):
        terms = [(c * math.exp(-k * snr), k) for c, k in tech.ber_fit]
        total = sum(t for t, _ in terms)
        step = (math.log(total) - log_target) * total / sum(t * k for t, k in terms)
        snr += step
        if step <= 1e-14 + 1e-15 * snr:
            return 10.0 * math.log10(snr)
    raise NumericFailureError("required-SNR Newton iteration did not converge", step)


@dataclass(frozen=True)
class SegmentedDesign:
    """Constant-window bitwise retransmission over a segmented packet.

    The packet splits into ``n_seg`` equal segments, each with its own
    window of ``w_seg`` bits and its own subset-rank feedback; the total
    feedback length ``c_tot`` is derived once, n_seg * ceil(log2(C(N/n_seg, w_seg))).
    """

    tech: Technology
    p_f: float
    p_r: float
    n_seg: int
    w_seg: int
    c_tot: int = field(init=False)

    def __post_init__(self):
        check_type("tech", self.tech, Technology)
        if self.tech.packet_bits % check_integer("n_seg", self.n_seg, 1) != 0:
            raise InvalidParameterError("packet size must divide into n_seg >= 1 equal segments")
        for name in ("p_f", "p_r"):
            check_real(name, getattr(self, name), 0.0, 1.0, "[)")
        subsets = check_subset(self.segment_bits, self.w_seg, 1)[2]  # C(n, w) costs ms at n = 6096
        object.__setattr__(self, "c_tot", self.n_seg * (subsets - 1).bit_length())

    @property
    def segment_bits(self) -> int:
        return self.tech.packet_bits // self.n_seg


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), 0 <= p < 1, from exact coefficients in log space.

    The binomial coefficients are exact integers and each term is summed
    relative to the largest one, so nothing overflows, and the one rounding
    to a double is the final ``exp``: only a CDF below the double range
    underflows, to 0.
    """
    if p == 0.0 or k >= n:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    logs, comb = [], 1
    for i in range(k + 1):
        logs.append(math.log(comb) + i * log_p + (n - i) * log_q)
        comb = comb * (n - i) // (i + 1)
    top = max(logs)
    return min(1.0, math.exp(top + math.log(math.fsum(math.exp(x - top) for x in logs))))


def segment_feasibility(design: SegmentedDesign) -> tuple[float, float]:
    """(forward, reverse) feasibility probabilities of a segmented design.

    Forward: probability that a segment carries at most w_seg errors (the
    window can then cover them all).  Reverse: probability that at least
    one of the c_tot feedback bits is hit.
    """
    design = check_type("design", design, SegmentedDesign)
    ppf = _binomial_cdf(design.w_seg, design.segment_bits, design.p_f)
    ppr = -math.expm1(design.c_tot * math.log1p(-design.p_r)) if design.p_r > 0 else 0.0
    return ppf, ppr


@dataclass(frozen=True)
class FeasibilityReport:
    """A screening verdict, its reasons and the ``segment_feasibility`` pair it read."""

    feasible: bool
    reasons: tuple[str, ...]
    ppf: float
    ppr: float


def feasible(design: SegmentedDesign) -> FeasibilityReport:
    """Screen a design against the deployment requirements.

    Requires the feedback-corruption probability below 1e-3 plus the
    efficient-design guidance of at most 1e-3 forward and 1e-5 reverse
    link BER.
    """
    ppf, ppr = segment_feasibility(design)
    reasons = []
    if ppr >= 1e-3:
        reasons.append(f"feedback corruption probability {ppr:.2e} >= 1e-3")
    if design.p_f > 1e-3:
        reasons.append(f"forward BER {design.p_f:.1e} > 1e-3")
    if design.p_r > 1e-5:
        reasons.append(f"reverse BER {design.p_r:.1e} > 1e-5")
    return FeasibilityReport(not reasons, tuple(reasons), ppf, ppr)


# ---------------------------------------------------------------------------
# uplink packet scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataSpan:
    """``bits`` fresh data bits of information block ``block`` (1-based)."""

    block: int
    bits: int


@dataclass(frozen=True)
class RetxSpan:
    """``bits`` retransmitted bits, round ``round`` of block ``block``."""

    block: int
    round: int
    bits: int


Span = DataSpan | RetxSpan


@dataclass(frozen=True)
class FusionPlan:
    """Ordered uplink packet contents."""

    packet_bits: int
    packets: tuple[tuple[Span, ...], ...]


def schedule_uplink(n: int, w: int, d: int, blocks: int, block_bits: int) -> FusionPlan:
    """FIFO uplink schedule for ``blocks`` buffered information blocks.

    Each packet first carries the retransmission spans due this slot (one
    per previously completed block, d consecutive slots per block, in
    block order), then fills up with fresh data.  Requires the total
    retransmission load d*w to stay well below the packet size for the
    regular packet structure; warns otherwise.
    """
    n, w, d = check_integer("n", n, 1), check_integer("w", w, 1), check_integer("d", d, 0)
    blocks = check_integer("blocks", blocks, 0)
    block_bits = check_integer("block_bits", block_bits, 1)
    if d and w > n:
        raise InvalidParameterError("window cannot exceed the packet size")
    if d * w > n / 4:
        warnings.warn("d*w exceeds n/4; packet structure may be irregular")

    # min-heap of (due packet, block, round) over the retransmission spans not
    # yet sent: each packet takes those due by then, oldest first, while they fit
    due: list[tuple[int, int, int]] = []
    remaining = block_bits
    current = 1
    packets: list[tuple[Span, ...]] = []
    p = 1
    while current <= blocks or due:
        spans: list[Span] = []
        cap = n
        while due and due[0][0] <= p and cap >= w:
            _, block, rnd = heappop(due)
            spans.append(RetxSpan(block, rnd, w))
            cap -= w
        while cap > 0 and current <= blocks:
            take = min(cap, remaining)
            spans.append(DataSpan(current, take))
            cap -= take
            remaining -= take
            if remaining == 0:
                for rnd in range(1, d + 1):
                    heappush(due, (p + rnd, current, rnd))
                current += 1
                remaining = block_bits
        packets.append(tuple(spans))
        p += 1
    return FusionPlan(n, tuple(packets))


def serialize_plan(plan: FusionPlan) -> str:
    """Line-oriented text form, one packet per line.

    Data spans print as ``D<block>(<bits>)`` and retransmission spans as
    ``R<block>,<round>(<bits>)``, comma separated.
    """
    lines = []
    plan = check_type("plan", plan, FusionPlan)
    for packet in plan.packets:
        parts = []
        for span in packet:
            if isinstance(span, DataSpan):
                parts.append(f"D{span.block}({span.bits})")
            else:
                parts.append(f"R{span.block},{span.round}({span.bits})")
        lines.append(", ".join(parts))
    return "\n".join(lines)


def max_sensor_nodes(n: int, overhead_bits: int, d: int, c_tot: int) -> int:
    """Largest node count whose combined feedback fits one downlink slot.

    floor((n - overhead) / (d * c_tot)): the floor guarantees the fit (the
    nearest-integer reading can overshoot the slot by half a message).
    """
    n, overhead_bits = check_integer("n", n, 1), check_integer("overhead_bits", overhead_bits, 0)
    d, c_tot = check_integer("d", d, 1), check_integer("c_tot", c_tot, 1)
    if n <= overhead_bits:
        raise InvalidParameterError("no payload left after overhead")
    return (n - overhead_bits) // (d * c_tot)
