"""Exception types raised across the package."""


class BcmaesError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(BcmaesError):
    """A matrix required to be positive definite failed its Cholesky factorization."""


class RepairFailed(BcmaesError):
    """Diagonal-jitter repair could not restore positive definiteness."""


class DegreesOfFreedomTooLow(BcmaesError):
    """The inverse-Wishart mean does not exist for the given degrees of freedom."""


class InvariantViolation(BcmaesError):
    """A belief-state invariant (positivity, symmetry, definiteness) was broken."""


class InvalidLevels(BcmaesError):
    """Restart level thresholds must be strictly increasing."""


class PriorDegeneracy(BcmaesError):
    """The belief covariance became irrecoverably degenerate mid-run."""


class UnknownFunction(BcmaesError):
    """Requested benchmark name is not in the registry."""


class SchemaError(BcmaesError):
    """A trace CSV did not conform to the frozen schema."""
