"""One rule for real-number input: every public entry that takes a real or a
threshold ladder rejects a str, bytes, None, bool, nan or container where a
real belongs with ``InvalidParameterError``; none crashes with a raw
``TypeError``/``ValueError`` or coerces the value into a number.

Scalars go through :func:`bitarq.model.check_real`, arrays through
:func:`bitarq.analytic.check_reals` and sequences through
:func:`bitarq.model.check_items`.  Likewise every entry that takes a package
object (a link, config, technology, design, plan or feedback message) rejects
anything else through :func:`bitarq.model.check_type`, not with a raw
``AttributeError``, and an exponential fit goes through
:func:`bitarq.model.check_fit`.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bitarq import InvalidParameterError
from bitarq.analytic import (DEFAULT_PRONY, appendix_integral, appendix_integral_quadrature, ber_approx,
                             ber_exact, ber_fading, ber_fading_quadrature, check_reals, q_function,
                             retx_rung, shared_threshold_fractions)
from bitarq.feedback import (CombinadicMessage, PermutationMessage, combinadic_decode,
                             permutation_recover, throughput_one_retx)
from bitarq.fusion import (ZIGBEE, SegmentedDesign, Technology, ber_curve, feasible, required_snr,
                           segment_feasibility, serialize_plan)
from bitarq.mc import compare_schemes, simulate
from bitarq.model import (LinkModel, ProtocolConfig, SlowChiSquareFading, check_real, check_snr,
                          check_type, scheme_protocol, window_size)
from bitarq.optimize import (equal_probability_thresholds, fixed_threshold_rate,
                             fixed_threshold_windows, golden_section, is_unimodal, optimize_rate,
                             optimize_threshold, optimize_window, resolve_strategy, sweep_blocks,
                             threshold_u_max)

# entries that take one real number
SCALAR_ENTRIES = {
    "LinkModel": LinkModel,
    "SlowChiSquareFading": SlowChiSquareFading,
    "check_snr": lambda v: check_snr("snr", v),
    "window_size-rate": lambda v: window_size("rate", v, 1000, 2),
    "window_size-window": lambda v: window_size("window", v, 1000, 2),
    "scheme_protocol-rate": lambda v: scheme_protocol("sequential", ("rate", v), 1024, 2, 2.0),
    "scheme_protocol-window": lambda v: scheme_protocol("preassigned", ("window", v), 1024, 2, 2.0),
    "scheme_protocol-threshold": lambda v: scheme_protocol("sequential", ("threshold", v), 1024, 2, 2.0),
    "scheme_protocol-base_snr": lambda v: scheme_protocol("full_repetition", None, 1024, 2, v),
    "ProtocolConfig-rung": lambda v: ProtocolConfig(8, 1, thresholds=(v,)),
    "threshold_u_max": threshold_u_max,
    "golden_section-a": lambda v: golden_section(lambda x: x, v, 1.0),
    "golden_section-b": lambda v: golden_section(lambda x: x, 0.0, v),
    "is_unimodal-atol": lambda v: is_unimodal([1.0, 2.0], v),
    "sweep_blocks-u_max": lambda v: next(sweep_blocks("threshold", 4, 64, 1, 2.0, v)),
    "sweep_blocks-base_snr": lambda v: next(sweep_blocks("window", 4, 64, 1, v)),
    "resolve_strategy-base_snr": lambda v: resolve_strategy("rate", 0.8, 1, v),
    "equal_probability_thresholds-p": lambda v: equal_probability_thresholds(1, v, LinkModel(1.0)),
    "fixed_threshold_rate-base_snr": lambda v: fixed_threshold_rate(1, 0.5, v),
    "fixed_threshold_windows-u": lambda v: fixed_threshold_windows(64, 1, v, 1.0),
    "fixed_threshold_windows-snr": lambda v: fixed_threshold_windows(64, 1, 0.5, v),
    "appendix_integral-h": lambda v: appendix_integral("semiinf_minus", (v, 1.0, 1.0, 1.0, 1.0)),
    "appendix_integral-bound": lambda v: appendix_integral("finite_plus", (1.0,) * 5, v),
    "appendix_integral_quadrature-bound": lambda v: appendix_integral_quadrature(
        "finite_minus", (1.0,) * 5, v),
    "ber_curve": lambda v: ber_curve(ZIGBEE, v),
    "required_snr": lambda v: required_snr(ZIGBEE, v),
    "Technology-coefficient": lambda v: Technology("x", ((v, 1.0),), 8),
    "Technology-rate": lambda v: Technology("x", ((1.0, v),), 8),
    "SegmentedDesign-p_f": lambda v: SegmentedDesign(ZIGBEE, v, 0.0, 1, 2),
    "SegmentedDesign-p_r": lambda v: SegmentedDesign(ZIGBEE, 0.0, v, 1, 2),
    "throughput_one_retx": lambda v: throughput_one_retx(16, v),
}
NOT_A_REAL = {"str": "1", "bytes": b"12", "None": None, "bool": True, "nan": math.nan, "list": [1.0]}

# entries that take a real or an array of reals; nan is out of every domain but Q's
ARRAY_ENTRIES = {
    "q_function": q_function,
    "ber_exact-snr": lambda v: ber_exact(v, (0.5,)),
    "ber_approx-snr": lambda v: ber_approx(v, (0.5,)),
    "retx_rung-snr": lambda v: retx_rung(v, ()),
    "retx_rung-u": lambda v: retx_rung(1.0, (0.5,))(v),
    "ladder-rung": lambda v: ber_exact(1.0, (v,)),
    "shared_threshold_fractions-u": lambda v: shared_threshold_fractions(1, v, 1.0),
    "shared_threshold_fractions-snr": lambda v: shared_threshold_fractions(1, 0.5, v),
    "resolve_strategy-rate": lambda v: resolve_strategy("rate", v, 1, 1.0),
    "resolve_strategy-window": lambda v: resolve_strategy("window", v, 1, 1.0),
    "resolve_strategy-threshold": lambda v: resolve_strategy("threshold", v, 1, 1.0),
    "fixed_threshold_rate-u": lambda v: fixed_threshold_rate(1, v, 1.0),
}
NOT_REALS = {"str": "1", "bytes": b"12", "None": None, "bool": True,
             "bool array": np.array([True, False]), "mixed list": [1.0, None], "nan": math.nan}

# entries that take a sequence: two-rung ladders, the five h and the BER fit
SEQUENCE_ENTRIES = {
    "ber_exact": lambda s: ber_exact(1.0, s),
    "ber_approx": lambda s: ber_approx(1.0, s),
    "retx_rung": lambda s: retx_rung(1.0, s),
    "ProtocolConfig": lambda s: ProtocolConfig(8, 2, thresholds=s),
    "appendix_integral-h": lambda s: appendix_integral("semiinf_plus", s),
    "Technology-ber_fit": lambda s: Technology("x", s, 8),
    "Technology-ber_fit term": lambda s: Technology("x", (s,), 8),
}
NOT_A_SEQUENCE = {"str": "12", "bytes": b"12", "None": None, "bool": True, "nan": math.nan}


# None is the documented default of these two: u_max by threshold_u_max, and no ladder
NONE_IS_THE_DEFAULT = {"sweep_blocks-u_max", "ProtocolConfig"}


def _cases(entries, values):
    return [(entry, value) for entry in entries for value in values
            if not (value == "None" and entry in NONE_IS_THE_DEFAULT)]


@pytest.mark.parametrize("entry, value", _cases(SCALAR_ENTRIES, NOT_A_REAL))
def test_scalar_entries_reject_what_is_not_a_real(entry, value):
    with pytest.raises(InvalidParameterError):
        SCALAR_ENTRIES[entry](NOT_A_REAL[value])


@pytest.mark.parametrize("entry, value", _cases(ARRAY_ENTRIES, NOT_REALS))
def test_array_entries_reject_what_is_not_real(entry, value):
    if (entry, value) == ("q_function", "nan"):
        assert math.isnan(q_function(math.nan))  # Q takes every real: nan in, nan out
        return
    with pytest.raises(InvalidParameterError):
        ARRAY_ENTRIES[entry](NOT_REALS[value])


@pytest.mark.parametrize("entry, value", _cases(SEQUENCE_ENTRIES, NOT_A_SEQUENCE))
def test_sequence_entries_reject_what_is_not_a_sequence_of_reals(entry, value):
    with pytest.raises(InvalidParameterError):
        SEQUENCE_ENTRIES[entry](NOT_A_SEQUENCE[value])


CONFIG = ProtocolConfig(64, 2, thresholds=(0.5, 1.0))
LINK = LinkModel(2.0)
FADED = LinkModel(2.0, fading=SlowChiSquareFading(2.0))
DESIGN = SegmentedDesign(ZIGBEE, 1e-3, 1e-5, 2, 3)

# entries that take a package object: (call, argument name, an object of another package type)
OBJECT_ENTRIES = {
    "simulate-config": (lambda v: simulate(v, LINK, "sequential", 64, 0), "config", LINK),
    "simulate-link": (lambda v: simulate(CONFIG, v, "sequential", 64, 0), "link", CONFIG),
    "compare_schemes-config": (lambda v: compare_schemes(v, LINK, 64), "config", LINK),
    "compare_schemes-link": (lambda v: compare_schemes(CONFIG, v, 64), "link", CONFIG),
    "optimize_rate": (lambda v: optimize_rate(64, 1, v), "link", CONFIG),
    "optimize_window": (lambda v: optimize_window(64, 1, v), "link", CONFIG),
    "optimize_threshold": (lambda v: optimize_threshold(64, 1, v), "link", CONFIG),
    "equal_probability_thresholds": (lambda v: equal_probability_thresholds(1, 0.2, v), "link", CONFIG),
    "ber_fading-config": (lambda v: ber_fading(v, FADED), "config", FADED),
    "ber_fading-link": (lambda v: ber_fading(CONFIG, v), "link", CONFIG),
    "ber_fading_quadrature-config": (lambda v: ber_fading_quadrature(v, FADED), "config", FADED),
    "ber_fading_quadrature-link": (lambda v: ber_fading_quadrature(CONFIG, v), "link", CONFIG),
    "ber_curve": (lambda v: ber_curve(v, 1.0), "tech", DESIGN),
    "required_snr": (lambda v: required_snr(v, 1e-3), "tech", DESIGN),
    "SegmentedDesign": (lambda v: SegmentedDesign(v, 1e-3, 1e-5, 1, 2), "tech", LINK),
    "segment_feasibility": (segment_feasibility, "design", ZIGBEE),
    "feasible": (feasible, "design", ZIGBEE),
    "serialize_plan": (serialize_plan, "plan", DESIGN),
    "combinadic_decode": (lambda v: combinadic_decode(v, 4, 2), "message", PermutationMessage(1, 0, 2)),
    "permutation_recover": (lambda v: permutation_recover(v, 4, 2, 1), "message", CombinadicMessage(1, 3)),
}
NOT_AN_OBJECT = {"None": None, "float": 2.0, "str": "x"}


@pytest.mark.parametrize("entry, value", [(entry, value) for entry in OBJECT_ENTRIES
                                          for value in (*NOT_AN_OBJECT, "other package type")])
def test_object_entries_reject_what_is_not_their_type(entry, value):
    # each raised a raw AttributeError, e.g. "'float' object has no attribute 'awgn_snr'"
    call, name, other = OBJECT_ENTRIES[entry]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be a [A-Z]"):
        call(other if value == "other package type" else NOT_AN_OBJECT[value])


# the BER fit of ber_approx, the strategy flag of scheme_protocol, the function of
# golden_section and the values of is_unimodal: (call, argument name)
SHAPE_ENTRIES = {
    "ber_approx-prony-str": (lambda: ber_approx(1.0, (0.5,), prony="ab"), "prony"),
    "ber_approx-prony-empty": (lambda: ber_approx(1.0, (0.5,), prony=()), "prony"),
    "ber_approx-prony-bool": (lambda: ber_approx(1.0, (0.5,), prony=((True, 1.0),)), "prony"),
    "ber_approx-prony-negative": (lambda: ber_approx(1.0, (0.5,), prony=((-1.0, 1.0),)), "prony"),
    "ber_approx-prony-zero-rate": (lambda: ber_approx(1.0, (0.5,), prony=((1.0, 0.0),)), "prony"),
    "scheme_protocol-bare-kind": (lambda: scheme_protocol("sequential", "rate", 64, 1, 2.0), "flag"),
    "scheme_protocol-1-tuple": (lambda: scheme_protocol("sequential", ("rate",), 64, 1, 2.0), "flag"),
    "scheme_protocol-3-tuple": (lambda: scheme_protocol("sequential", ("rate", 0.8, 1), 64, 1, 2.0), "flag"),
    "golden_section-None": (lambda: golden_section(None, 0.0, 1.0), "f"),
    "golden_section-float": (lambda: golden_section(1.0, 0.0, 1.0), "f"),
    "is_unimodal-str": (lambda: is_unimodal("12"), "values"),
    "is_unimodal-None": (lambda: is_unimodal(None), "values"),
    "is_unimodal-float": (lambda: is_unimodal(1.0), "values"),
    "is_unimodal-None-element": (lambda: is_unimodal([1.0, None]), "values"),
    "is_unimodal-str-elements": (lambda: is_unimodal(["1", "2"]), "values"),
    "is_unimodal-bool-element": (lambda: is_unimodal([True, 2.0]), "values"),
    "is_unimodal-nan-element": (lambda: is_unimodal([1.0, math.nan, 2.0]), "values"),
}


@pytest.mark.parametrize("entry", SHAPE_ENTRIES)
def test_fits_flags_functions_and_value_sequences_are_checked(entry):
    call, name = SHAPE_ENTRIES[entry]
    with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
        call()


def test_a_valid_prony_fit_is_read_as_the_default_is():
    # every fit goes through check_fit; the values it returns are the same floats
    default = ber_approx(np.array([0.5, 2.0]), (0.5, 1.0))
    same = [[0.208, 0.971], [np.float64(0.147), 0.525]]
    assert np.array_equal(ber_approx(np.array([0.5, 2.0]), (0.5, 1.0), prony=same), default)
    assert np.array_equal(ber_approx(np.array([0.5, 2.0]), (0.5, 1.0), prony=DEFAULT_PRONY), default)


def test_a_technology_stores_its_fit_as_checked():
    # a list-form fit was stored as given, so hash() of the frozen dataclass raised a raw TypeError
    tech = Technology("zigbee", [[1.5203, 9.5611]], 1064)
    assert tech.ber_fit == ((1.5203, 9.5611),)
    assert tech == ZIGBEE and hash(tech) == hash(ZIGBEE)


def test_a_strategy_flag_may_be_any_pair():
    assert scheme_protocol("sequential", ["rate", 0.8], 64, 1, 2.0) == \
        scheme_protocol("sequential", ("rate", 0.8), 64, 1, 2.0)


def test_check_type_names_the_argument_the_classes_and_the_value():
    assert check_type("link", LINK, LinkModel) is LINK
    assert check_type("fading", None, (SlowChiSquareFading, type(None))) is None
    with pytest.raises(InvalidParameterError) as error:
        check_type("data", "ab", (bytes, bytearray, memoryview))
    assert str(error.value) == "data must be a bytes or bytearray or memoryview, got 'ab'"


@pytest.mark.parametrize("call, message", [
    (lambda: LinkModel("1"), "snr_per_symbol '1' outside (0, 100 dB]"),
    (lambda: LinkModel(True), "snr_per_symbol True outside (0, 100 dB]"),  # was stored
    (lambda: window_size("rate", "0.5", 8, 1),
     "rate '0.5' outside the admissible interval (0.5, 0.8888888888888888]"),
    (lambda: required_snr(ZIGBEE, "1e-3"), "target BER '1e-3' outside [1e-06, 0.01]"),
    (lambda: resolve_strategy("rate", "0.8", 1, 1.0), "rate must be a real number or array, got '0.8'"),
    (lambda: ber_exact(1.0, b"12"), "the threshold ladder must be a sequence of numbers, got b'12'"),
    (lambda: ProtocolConfig(8, 2, thresholds="12"), "thresholds must be a sequence of numbers, got '12'"),
    (lambda: ProtocolConfig(8, 1, thresholds=(-0.5,)), "threshold -0.5 outside [0, inf]"),
    (lambda: ber_exact(1.0, (np.array([0.5, -0.1]),)), "threshold -0.1 outside [0, inf]"),
    (lambda: optimize_rate(64, 1, 2.0), "link must be a LinkModel, got 2.0"),
    (lambda: LinkModel(1.0, fading=3.0), "fading must be a SlowChiSquareFading or None, got 3.0"),
    (lambda: ber_approx(1.0, (0.5,), prony=()), "prony must hold one or more (coefficient, rate) pairs"),
    (lambda: ber_approx(1.0, (0.5,), prony=((-1.0, 1.0),)),
     "a prony coefficient or rate -1.0 outside (0, inf)"),
    (lambda: scheme_protocol("sequential", "rate", 64, 1, 2.0),
     "flag must be None or one (kind, value) pair, got 'rate'"),
], ids=["LinkModel-str", "LinkModel-bool", "window_size-str", "required_snr-str",
        "resolve_strategy-str", "ber_exact-bytes", "ProtocolConfig-str", "ProtocolConfig-negative",
        "ber_exact-negative-element", "optimize_rate-float-link", "LinkModel-float-fading",
        "ber_approx-empty-prony", "ber_approx-negative-prony", "scheme_protocol-bare-kind"])
def test_messages_name_the_parameter_the_value_and_the_interval(call, message):
    # each of these raised a raw TypeError, ValueError or AttributeError, or (bool, bytes, str
    # ladder, negative prony) returned a value computed from a coerced input; the fading
    # message is the one LinkModel gave before check_type owned it
    with pytest.raises(InvalidParameterError) as error:
        call()
    assert str(error.value) == message


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.5), np.float64(0.25), np.int64(1)])
    def test_python_and_numpy_reals_come_back_as_floats(self, value):
        x = check_real("x", value, 0.0, 1.0, "[]")
        assert type(x) is float and x == float(value)

    @pytest.mark.parametrize("closed, inside", [
        ("()", (False, False)), ("(]", (False, True)), ("[)", (True, False)), ("[]", (True, True)),
    ])
    def test_closed_says_which_end_is_in(self, closed, inside):
        for end, expected in zip((0.0, 1.0), inside):
            try:
                check_real("x", end, 0.0, 1.0, closed)
                accepted = True
            except InvalidParameterError as error:
                assert str(error) == f"x {end!r} outside {closed[0]}0, 1{closed[1]}"
                accepted = False
            assert accepted == expected

    def test_an_int_past_the_floats_is_an_infinity(self):
        # float() raised a raw OverflowError from 2**1024 - 2**970 up, where it rounds to 2**1024
        big = 2**1024 - 2**970
        assert check_real("u", big, 0.0, math.inf, "[]") == math.inf
        assert check_real("u", -Fraction(big), -math.inf, 0.0, "[]") == -math.inf
        assert check_real("u", big - 1, 0.0, math.inf) == sys.float_info.max
        with pytest.raises(InvalidParameterError, match=r"^snr_per_symbol inf outside"):
            LinkModel(10**400)

    def test_infinite_ends(self):
        assert check_real("u", math.inf, 0.0, math.inf, "[]") == math.inf
        with pytest.raises(InvalidParameterError, match=r"^u inf outside \(0, inf\)$"):
            check_real("u", math.inf, 0.0, math.inf)


class TestCheckReals:
    @pytest.mark.parametrize("values", [[1, 2], np.array([1, 2], dtype=np.uint8), np.float32(0.5),
                                        (0.5, 1.5), 3])
    def test_integer_and_floating_dtypes_come_back_as_float_arrays(self, values):
        array = check_reals("x", values)
        assert array.dtype == np.float64
        assert np.array_equal(array, np.asarray(values, dtype=float))

    def test_a_float_array_is_not_copied(self):
        array = np.array([0.5, 1.0])
        assert check_reals("x", array) is array
