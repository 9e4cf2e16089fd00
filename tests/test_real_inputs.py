"""One rule for real-number input: every public entry that takes a real or a
threshold ladder rejects a str, bytes, None, bool, nan or container where a
real belongs with ``InvalidParameterError``; none crashes with a raw
``TypeError``/``ValueError`` or coerces the value into a number.

Scalars go through :func:`bitarq.model.check_real`, arrays through
:func:`bitarq.analytic.check_reals` and sequences through
:func:`bitarq.model.check_items`.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bitarq import InvalidParameterError
from bitarq.analytic import (appendix_integral, appendix_integral_quadrature, ber_approx, ber_exact,
                             check_reals, q_function, retx_rung, shared_threshold_fractions)
from bitarq.feedback import throughput_one_retx
from bitarq.fusion import ZIGBEE, SegmentedDesign, Technology, ber_curve, required_snr
from bitarq.model import (LinkModel, ProtocolConfig, SlowChiSquareFading, check_real, check_snr,
                          scheme_protocol, window_size)
from bitarq.optimize import (equal_probability_thresholds, fixed_threshold_rate,
                             fixed_threshold_windows, golden_section, is_unimodal,
                             resolve_strategy, sweep_blocks, threshold_u_max)

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
], ids=["LinkModel-str", "LinkModel-bool", "window_size-str", "required_snr-str",
        "resolve_strategy-str", "ber_exact-bytes", "ProtocolConfig-str", "ProtocolConfig-negative",
        "ber_exact-negative-element"])
def test_messages_name_the_parameter_the_value_and_the_interval(call, message):
    # each of these raised a raw TypeError or ValueError, or (bool, bytes, str ladder)
    # returned a value computed from a coerced input
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
