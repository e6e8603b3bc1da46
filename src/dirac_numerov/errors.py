"""Exception types raised across the package."""


class EtaOutOfRange(ValueError):
    """The energy ratio E/M left the open interval (-1, 1)."""


class LengthMismatch(ValueError):
    """Paired component arrays have different lengths."""


class UnsupportedDimension(ValueError):
    """The requested spatial dimension is outside the validity of the formula."""


class UnsupportedCase(ValueError):
    """The closed-form reference result does not cover this configuration."""


class SupercriticalCoupling(ValueError):
    """|K| <= coupling: the indicial exponent turns imaginary."""


class SingularCoefficient(ArithmeticError):
    """A finite-difference step coefficient vanished; the recurrence cannot advance."""


class NonFiniteValue(ArithmeticError):
    """Propagation produced NaN/inf despite rescaling."""

    def __init__(self, message, eta=None):
        self.eta = eta
        super().__init__(message)


class ConfigError(ValueError):
    """Invalid run configuration (CLI flags, config file, or settings)."""
