"""Exception types raised across the package."""


class BcmaesError(Exception):
    """Base class for all package-specific errors."""


class RepairFailed(BcmaesError):
    """Diagonal-jitter repair could not restore positive definiteness."""


class PriorDegeneracy(BcmaesError):
    """The belief covariance became irrecoverably degenerate mid-run."""


class UnknownFunction(BcmaesError):
    """Requested benchmark name is not in the registry."""


class SchemaError(BcmaesError):
    """A trace CSV did not conform to the frozen schema."""
