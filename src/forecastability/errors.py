"""Exception types shared across the package."""

__all__ = [
    "ForecastabilityError",
    "InsufficientData",
    "DomainError",
    "SingularSystem",
    "CoverageError",
    "DegenerateSample",
    "ConfigError",
    "MissingHorizon",
]


class ForecastabilityError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientData(ForecastabilityError):
    """The series is too short for the requested lag order / horizon."""


class DomainError(ForecastabilityError):
    """A parameter lies outside its mathematical domain (e.g. |phi| >= 1)."""


class SingularSystem(ForecastabilityError):
    """A lag-window correlation matrix is not positive definite."""


class CoverageError(ForecastabilityError):
    """The supplied autocorrelation sequence is too short for the request."""


class DegenerateSample(ForecastabilityError):
    """Duplicate sample points survived jittering; neighbour distances hit zero."""


class ConfigError(ForecastabilityError):
    """Invalid estimator or test configuration (e.g. k >= sample size)."""


class MissingHorizon(ForecastabilityError):
    """A profile does not contain a value for the requested horizon."""
