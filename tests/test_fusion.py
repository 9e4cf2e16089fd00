import hashlib
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from bitarq.errors import InvalidParameterError
from bitarq.fusion import (
    BLUETOOTH,
    TECHNOLOGIES,
    WIFI,
    ZIGBEE,
    DataSpan,
    RetxSpan,
    SegmentedDesign,
    Technology,
    ber_curve,
    feasible,
    max_sensor_nodes,
    required_snr,
    schedule_uplink,
    segment_feasibility,
    serialize_plan,
)
from bitarq.model import feedback_bit_width
from reference_designs import OPERATING_POINTS, REFERENCE_SCHEDULE, SEGMENTED_DESIGNS


class TestTechnologies:
    def test_packet_sizes(self):
        assert ZIGBEE.packet_bits == 1064
        assert WIFI.packet_bits == 12192
        assert BLUETOOTH.packet_bits == 2048

    def test_curves_decrease(self):
        for tech in TECHNOLOGIES.values():
            values = [ber_curve(tech, g) for g in (0.1, 0.5, 1.0, 5.0, 20.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_required_snr_spot_values(self):
        assert required_snr(ZIGBEE, 1e-3) == pytest.approx(-1.16, abs=0.05)
        assert required_snr(BLUETOOTH, 1e-5) == pytest.approx(13.34, abs=0.05)
        assert required_snr(WIFI, 1e-4) == pytest.approx(6.63, abs=0.05)

    def test_required_snr_round_trip(self):
        for tech in TECHNOLOGIES.values():
            for target in (1e-2, 1e-4, 1e-6):
                snr = 10 ** (required_snr(tech, target) / 10)
                assert ber_curve(tech, snr) == pytest.approx(target, rel=1e-9)

    def test_required_snr_range(self):
        with pytest.raises(InvalidParameterError):
            required_snr(ZIGBEE, 0.5)
        with pytest.raises(InvalidParameterError):
            required_snr(ZIGBEE, 1e-9)


class TestSegmentedDesigns:
    def test_widths_reproduce(self):
        for tech, pf, pr, nseg, wseg, ctot, _, _ in SEGMENTED_DESIGNS:
            design = SegmentedDesign(TECHNOLOGIES[tech], pf, pr, nseg, wseg)
            assert design.c_tot == ctot

    def test_probability_spot_rows(self):
        design = SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 2, 3)
        ppf, ppr = segment_feasibility(design)
        assert ppf == pytest.approx(0.9978, abs=1e-4)
        assert ppr == pytest.approx(5.0e-4, rel=0.05)

    def test_degenerate_links(self):
        design = SegmentedDesign(ZIGBEE, 0.0, 0.0, 2, 3)
        ppf, ppr = segment_feasibility(design)
        assert ppf == 1.0
        assert ppr == 0.0

    def test_feasibility_screens(self):
        good = SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 2, 3)
        assert feasible(good).feasible
        noisy_feedback = SegmentedDesign(ZIGBEE, 1e-3, 1e-2, 2, 3)
        report = feasible(noisy_feedback)
        assert not report.feasible
        assert any("feedback" in r for r in report.reasons)
        assert any("reverse" in r for r in report.reasons)
        hot_forward = SegmentedDesign(BLUETOOTH, 1e-2, 1e-6, 2, 18)
        report = feasible(hot_forward)
        assert not report.feasible
        assert report.reasons == ("forward BER 1.0e-02 > 1e-3",)

    def test_report_carries_the_one_evaluation(self, monkeypatch):
        # the CLI prints ppf and ppr from the report, so feasible evaluates the
        # pair once, and c_tot is derived once, when the design is built
        import bitarq.fusion as fusion

        design = SegmentedDesign(WIFI, 1e-3, 1e-5, 1, 6096)
        want, width = segment_feasibility(design), feedback_bit_width(12192, 6096)
        calls = []
        monkeypatch.setattr(fusion, "segment_feasibility", lambda d: calls.append(d) or want)
        monkeypatch.setattr(math, "comb", None)  # C(n, w) takes ms at this size
        report = feasible(design)
        assert calls == [design]
        assert (report.ppf, report.ppr) == want
        assert design.c_tot == width

    @pytest.mark.parametrize("tech", TECHNOLOGIES.values(), ids=TECHNOLOGIES)
    @pytest.mark.parametrize("p_f", [0.0, 1e-6, 1e-3, 0.5, 0.999])
    def test_forward_probability_matches_the_exact_sum(self, tech, p_f):
        # 40-digit sum of the binomial terms by their ratio recurrence; a CDF
        # below the double range must come back as 0, its nearest double
        n = tech.packet_bits
        for w in (1, 3, n):
            with mpmath.workdps(40):
                p = mpmath.mpf(p_f)
                term = (1 - p) ** n
                exact = term
                for i in range(w):
                    term *= (n - i) * p / ((i + 1) * (1 - p))
                    exact += term
                want = float(exact)
            ppf, _ = segment_feasibility(SegmentedDesign(tech, p_f, 0.0, 1, w))
            assert ppf == pytest.approx(want, rel=1e-10, abs=0), (w, ppf, want)

    def test_geometry_validation(self):
        with pytest.raises(InvalidParameterError):
            SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 3, 2)  # 1064 % 3 != 0

    def test_rejects_zero_segments(self):
        with pytest.raises(InvalidParameterError):
            SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 0, 1)

    def test_window_follows_the_subset_shape_rule(self):
        # a 532-bit segment: w_seg = 532 fits, 533 does not
        assert SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 2, 532).c_tot == 0
        with pytest.raises(InvalidParameterError) as error:
            SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 2, 533)
        assert str(error.value) == "need 1 <= w <= n"


class TestSchedule:
    def test_reference_schedule_byte_identical(self):
        plan = schedule_uplink(1064, 4, 3, 10, 1064)
        assert serialize_plan(plan) == REFERENCE_SCHEDULE
        assert len(plan.packets) == 10 + 3 + 1

    def test_window_above_the_packet_is_rejected(self):
        with pytest.warns(UserWarning):  # d*w > n/4 as well
            assert schedule_uplink(10, 10, 1, 1, 10).packets
        with pytest.raises(InvalidParameterError) as error:
            schedule_uplink(10, 11, 1, 1, 10)
        assert str(error.value) == "window cannot exceed the packet size"

    def test_conservation(self):
        plan = schedule_uplink(1064, 4, 3, 10, 1064)
        spans = [s for packet in plan.packets for s in packet]
        assert sum(s.bits for s in spans if isinstance(s, DataSpan)) == 10 * 1064
        assert sum(s.bits for s in spans if isinstance(s, RetxSpan)) == 10 * 3 * 4

    def test_full_packets_up_front(self):
        plan = schedule_uplink(1064, 4, 3, 10, 1064)
        fill = [sum(s.bits for s in packet) for packet in plan.packets]
        assert fill[:10] == [1064] * 10
        assert all(f < 1064 for f in fill[10:14])
        assert fill[-1] == 4  # 1060 trailing free bits, left unfilled

    def test_blocks_split_over_two_packets(self):
        plan = schedule_uplink(1064, 4, 3, 10, 1064)
        spans_per_block = {}
        for p_idx, packet in enumerate(plan.packets):
            for span in packet:
                if isinstance(span, DataSpan):
                    spans_per_block.setdefault(span.block, []).append(p_idx)
        assert spans_per_block[1] == [0]
        for block in range(2, 11):
            packs = spans_per_block[block]
            assert len(packs) == 2
            assert packs[1] == packs[0] + 1

    def test_retx_rounds_consecutive(self):
        plan = schedule_uplink(1064, 4, 3, 10, 1064)
        completed = {1: 0}
        rounds = {}
        for p_idx, packet in enumerate(plan.packets):
            for span in packet:
                if isinstance(span, RetxSpan):
                    rounds.setdefault(span.block, []).append((span.round, p_idx))
        for block, seq in rounds.items():
            assert [r for r, _ in seq] == [1, 2, 3]
            packs = [p for _, p in seq]
            assert packs == list(range(packs[0], packs[0] + 3))

    def test_downlink_request_profile(self):
        plan = schedule_uplink(1064, 4, 3, 10, 1064)
        counts = [sum(isinstance(s, RetxSpan) for s in packet) for packet in plan.packets]
        d = 3
        peak = max(counts)
        assert peak == d
        first_peak = counts.index(peak)
        assert all(a <= b for a, b in zip(counts[:first_peak], counts[1:first_peak + 1]))
        assert counts[-(d - 1):] == [d - 1, d - 2][: d - 1] or counts[-2:] == [2, 1]

    def test_no_retransmissions(self):
        plan = schedule_uplink(1000, 1, 0, 3, 1000)
        assert len(plan.packets) == 3
        assert all(
            packet == (DataSpan(i + 1, 1000),) for i, packet in enumerate(plan.packets)
        )

    def test_zero_blocks(self):
        assert schedule_uplink(1000, 4, 2, 0, 1000).packets == ()
        # the load warning comes before the empty plan
        with pytest.warns(UserWarning, match="irregular"):
            assert schedule_uplink(100, 30, 2, 0, 100).packets == ()

    def test_full_packets_defer_retransmission_spans(self):
        # R3,1 and R3,2 find the packets they are due in full and move one
        # packet later each
        with pytest.warns(UserWarning, match="irregular"):
            plan = schedule_uplink(100, 60, 2, 3, 100)
        assert serialize_plan(plan).splitlines() == [
            "D1(100)",
            "R1,1(60), D2(40)",
            "R1,2(60), D2(40)",
            "D2(20), D3(80)",
            "R2,1(60), D3(20)",
            "R2,2(60)",
            "R3,1(60)",
            "R3,2(60)",
        ]
        rounds = [(s.block, s.round) for packet in plan.packets for s in packet
                  if isinstance(s, RetxSpan)]
        assert sorted(rounds) == [(b, r) for b in (1, 2, 3) for r in (1, 2)]
        assert all(rounds.index((b, 1)) < rounds.index((b, 2)) for b in (1, 2, 3))

    def test_seeded_schedules_are_pinned(self):
        # 2,000 random shapes, 270 of which send 2,780 spans after their due
        # packet; recorded before the pending dict and the deferral list became
        # one queue of due spans
        rng = random.Random(19)
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2000):
                n = rng.randint(1, 1064)
                w = rng.randint(1, n)
                d = rng.randint(0, 4)
                blocks = rng.randint(0, 8)
                block_bits = rng.randint(1, 3 * n)
                text = serialize_plan(schedule_uplink(n, w, d, blocks, block_bits))
                digest.update(f"{n} {w} {d} {blocks} {block_bits}\n{text}\n".encode())
        assert digest.hexdigest() == (
            "677757b2163f42061aa1ccc91818702b34000f9442bb1963ff42a81323380b39"
        )

    def test_heavy_retx_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            schedule_uplink(100, 30, 2, 3, 100)
        assert any("irregular" in str(w.message) for w in caught)


class TestCapacityBound:
    def test_reference_value(self):
        assert max_sensor_nodes(1064, 106, 3, 36) == 8

    def test_exact_fit(self):
        assert max_sensor_nodes(36, 0, 1, 36) == 1

    def test_heterogeneous_rule(self):
        # with mixed per-node parameters the largest feedback load governs
        loads = [(3, 36), (2, 50), (3, 20)]
        worst = max(d * c for d, c in loads)
        assert max_sensor_nodes(1064, 106, 1, worst) == (1064 - 106) // worst

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            max_sensor_nodes(100, 100, 3, 36)
        with pytest.raises(InvalidParameterError):
            max_sensor_nodes(100, 0, 0, 36)


@pytest.mark.parametrize("name", ["zigbee", "wifi", "bluetooth"])
def test_required_snr_matches_brentq(name):
    # the Newton solve replaced scipy's brentq at xtol=1e-14, rtol=1e-15
    from scipy.optimize import brentq

    tech = TECHNOLOGIES[name]
    hi = max(math.log(c * len(tech.ber_fit) / 1e-7) / k for c, k in tech.ber_fit)
    for ber in np.logspace(-6, -2, 41):
        snr = brentq(lambda g: ber_curve(tech, g) - ber, 1e-12, hi, xtol=1e-14, rtol=1e-15)
        assert required_snr(tech, float(ber)) == pytest.approx(10 * math.log10(snr), rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 2.0, 3).c_tot,  # raw TypeError from math.comb
    lambda: SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 2, 3.0).c_tot,  # raw TypeError from math.comb
    lambda: schedule_uplink(10.5, 2, 1, 2, 10),  # a plan with packet_bits=10.5
    lambda: schedule_uplink("10", 2, 1, 2, 10),  # raw TypeError from the range checks
    lambda: max_sensor_nodes(100.0, 10, 1, 3.5),  # returned 25.0
    lambda: Technology("t", ((1.0, 1.0),), 1064.5),  # accepted
    lambda: Technology("t", ((math.nan, 1.0),), 1064),  # accepted
], ids=["float-n-seg", "float-w-seg", "fractional-packet", "string-packet", "fractional-c-tot",
        "fractional-tech-packet", "nan-fit"])
def test_integer_inputs_raise_typed_errors(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_numpy_integers_are_accepted():
    want = schedule_uplink(1064, 4, 3, 10, 1064)
    assert schedule_uplink(np.int64(1064), np.int32(4), np.uint8(3), np.int64(10), 1064) == want
    assert max_sensor_nodes(np.int64(1064), 106, np.int8(1), 36) == (1064 - 106) // 36


def test_required_snr_rejects_a_target_above_the_fit():
    weak = Technology("weak", ((1e-3, 1.0),), 64)
    with pytest.raises(InvalidParameterError):
        required_snr(weak, 1e-2)
