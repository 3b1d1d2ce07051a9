"""Exception types shared across the package."""


class PcsftError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PcsftError):
    """Operands have incompatible or invalid dimensions."""


class NormalizationError(PcsftError):
    """A state vector does not have unit norm."""


class SelfAdjointnessError(PcsftError):
    """An operator that must be self-adjoint is not."""


class RealityError(PcsftError):
    """A quantity that must be real carries a non-negligible imaginary part."""


class SchemaError(PcsftError):
    """A rejected input; ``SchemaError(field, reason)`` is the one place
    the message prefix ``field '<field>': `` naming its field is written."""

    def __init__(self, field: str, reason: object):
        super().__init__(f"field '{field}': {reason}")


class InteractionError(SchemaError):
    """A Hamiltonian couples the two signal components.

    Only factorized dynamics (one generator per component) are supported.
    """


class NotPositiveError(SchemaError):
    """A covariance is not positive semidefinite, which for a valid state
    happens only through its background level (below epsilon_min, or too
    large for the factor's residual bound in float64), so the message names
    ``epsilon``.  ``epsilon_min``, when known, is the least admissible value."""

    def __init__(self, reason: str, epsilon_min: float | None = None):
        super().__init__("epsilon", reason)
        self.epsilon_min = epsilon_min


REJECTED_INPUT = (PcsftError, ValueError, OSError)  # what rejecting an input raises
