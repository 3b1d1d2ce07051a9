"""Exception types shared across the package."""


class PcsftError(Exception):
    """Base class for the inputs this package rejects."""


class DimensionError(PcsftError):
    """Operands have incompatible or invalid dimensions."""


class NormalizationError(PcsftError):
    """A state vector does not have unit norm."""


class SelfAdjointnessError(PcsftError):
    """An operator that must be self-adjoint is not."""


class RealityError(ArithmeticError):
    """A quantity that must be real carries a non-negligible imaginary part.
    Averages read exactly Hermitian matrices, so it is a fault of the
    program, not a rejected input, like the factor's FloatingPointError."""


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
    happens only through a background level below epsilon_min, so the
    message names ``epsilon``.  ``epsilon_min`` is the least admissible value."""

    def __init__(self, reason: str, epsilon_min: float):
        super().__init__("epsilon", reason)
        self.epsilon_min = epsilon_min


REJECTED_INPUT = (PcsftError, ValueError, OSError)  # what rejecting an input raises
