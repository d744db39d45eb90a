"""Exception types shared across the package."""


class UnlearnError(Exception):
    """Base class for all package errors."""


class DomainError(UnlearnError, ValueError):
    """An argument lies outside the mathematically supported domain."""


class InfeasibleBudget(UnlearnError):
    """The privacy budget cannot be met (e.g. Renyi order too small for (eps, delta))."""


class InfeasibleNoise(UnlearnError):
    """The requested noise level is below the certified threshold."""


class NumericalError(UnlearnError):
    """Numeric breakdown that should not occur for valid inputs (NaN, lost root, ...)."""


class FormatError(UnlearnError):
    """A serialized artifact (config, dataset, checkpoint, split or timings file) is malformed."""
