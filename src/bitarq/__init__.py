"""Bitwise selective-retransmission ARQ toolkit."""

from .analytic import (
    DEFAULT_PRONY,
    appendix_integral,
    appendix_integral_quadrature,
    ber_approx,
    ber_exact,
    ber_fading,
    ber_fading_quadrature,
    prob_retx_band,
    q_function,
)
from .errors import (
    BitarqError,
    ConfigurationError,
    InvalidParameterError,
    NumericFailureError,
    SearchExhaustedError,
)
from .model import (
    FixedRate,
    FixedThreshold,
    FixedWindow,
    LinkModel,
    ProtocolConfig,
    SlowChiSquareFading,
    fixed_rate_window,
)

__version__ = "0.1.0"
