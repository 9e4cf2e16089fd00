"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: invalid parameters / configuration
errors exit with 2, numeric failures with 3.
"""


class BitarqError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(BitarqError, ValueError):
    """An argument is outside its admissible range."""


class ConfigurationError(BitarqError, ValueError):
    """Mutually inconsistent protocol / simulation settings."""


class NumericFailureError(BitarqError, RuntimeError):
    """A numeric solver failed to reach its tolerance: adaptive quadrature,
    or a root solve (threshold inversion, shared-threshold rate)."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tolerance:.3e})")
        self.achieved_tolerance = achieved_tolerance


class SearchExhaustedError(BitarqError, RuntimeError):
    """Permutation search hit its iteration cap without a match."""

    def __init__(self, message: str, tried: int):
        super().__init__(f"{message} (tried {tried} permutations)")
        self.tried = tried
