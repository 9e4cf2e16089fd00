"""Bitwise selective-retransmission ARQ toolkit.

The analytic names (``ber_exact``, ``appendix_integral``, ...) load
``bitarq.analytic``, and with it NumPy and ``scipy.special``, on first
access, so ``import bitarq`` and the CLI start without them.
"""

from .errors import (
    BitarqError,
    ConfigurationError,
    InvalidParameterError,
    NumericFailureError,
    SearchExhaustedError,
)
from .model import LinkModel, ProtocolConfig, SlowChiSquareFading

__version__ = "0.1.0"

_ANALYTIC_NAMES = (
    "DEFAULT_PRONY",
    "appendix_integral",
    "appendix_integral_quadrature",
    "ber_approx",
    "ber_exact",
    "ber_fading",
    "ber_fading_quadrature",
    "q_function",
)

__all__ = [
    *_ANALYTIC_NAMES,
    "BitarqError",
    "ConfigurationError",
    "InvalidParameterError",
    "NumericFailureError",
    "SearchExhaustedError",
    "LinkModel",
    "ProtocolConfig",
    "SlowChiSquareFading",
]


def __getattr__(name: str):
    if name in _ANALYTIC_NAMES:
        from . import analytic

        value = globals()[name] = getattr(analytic, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
