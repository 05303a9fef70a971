"""Exception types shared across the package."""


class IonlightError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(IonlightError, ValueError):
    """A physical parameter is out of its allowed range."""


class UndefinedPeriodError(IonlightError, ValueError):
    """|chi2| <= |chi1|: the dynamics are not periodic and no half-period exists."""


class InfiniteSqueezingError(IonlightError, ValueError):
    """r = 1 corresponds to infinite squeezing; the target state does not exist."""


class StateError(IonlightError, ValueError):
    """A Gaussian state is malformed (dimensions, labels, or symmetry)."""


class UnphysicalStateError(StateError):
    """A covariance matrix violates the uncertainty relation beyond tolerance."""


class TruncationError(IonlightError, RuntimeError):
    """Number-basis truncation leaked more population than allowed.

    Carries the measured leakage and the truncation dimensions so the caller
    can retry with a larger basis.
    """

    def __init__(self, message, leakage=None, dims=None):
        super().__init__(message)
        self.leakage = leakage
        self.dims = dims


class ConfigError(IonlightError, ValueError):
    """A configuration file could not be parsed or contains bad keys.

    ``line`` is the 1-based line number when the problem is tied to one.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}: {base}"
        return base
