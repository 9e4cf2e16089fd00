"""Bitwise selective-retransmission ARQ toolkit."""

from .analytic import (
    DEFAULT_PRONY,
    ReliabilityBand,
    appendix_integral,
    appendix_integral_quadrature,
    ber_approx,
    ber_exact,
    ber_fading,
    ber_fading_quadrature,
    ber_no_retx,
    prob_in_band,
    prob_retx_band,
    q_function,
    q_prony,
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
    effective_snr_per_bit,
    fixed_rate_window,
    forward_rate,
    reverse_rate,
)

__version__ = "0.1.0"
