"""Exception types shared across the package."""


class KdToolError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(KdToolError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotPSD(KdToolError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NoConvergence(KdToolError):
    """An iterative matrix factorization failed to converge."""


class NotUnitary(KdToolError):
    """Matrix columns are not orthonormal within tolerance."""


class BadSpec(KdToolError):
    """Malformed state / basis / dims specification."""


class BasisPairSingular(KdToolError):
    """A first/second basis pair has a vanishing overlap, so the
    quasiprobability table cannot be inverted."""


class BadParamCount(KdToolError):
    """Angle vector length does not match the requested unitary dimension."""


class OptimizerFailed(KdToolError):
    """A search produced a result violating a hard invariant or bound."""


class DomainError(KdToolError):
    """Scalar argument outside the mathematically valid domain."""
