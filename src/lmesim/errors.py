"""Exception types shared across the package."""


class StabilityError(ValueError):
    """Drift matrix is not Hurwitz (some eigenvalue has non-negative real part)."""


class PositivityError(ValueError):
    """Matrix that must be positive semidefinite has a negative eigenvalue;
    ``time`` is the frame time when the matrix is a state of a run."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class UnsupportedConfigError(ValueError):
    """Operation does not apply to this configuration (e.g. driven system)."""


class IntegrationError(RuntimeError):
    """Trajectory integration failed a state-validity check."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ConfigError(ValueError):
    """Invalid run configuration; collects every violation found."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


#: failures of the numerics on valid input; anything else is a bug
NUMERICAL_ERRORS = (IntegrationError, StabilityError, PositivityError)
