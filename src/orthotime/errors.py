"""Exception types shared across the package."""


class NonHermitianError(ValueError):
    """Matrix violates the Hermiticity tolerance."""


class NonUnitaryError(ValueError):
    """Matrix violates the unitarity tolerance."""


class ConvergenceError(RuntimeError):
    """A solver failed, a decomposition did not verify, or scan samples broke their bound."""


class CutProximityError(ValueError):
    """An eigenvalue lies on or too close to the logarithm branch cut at -1."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""
