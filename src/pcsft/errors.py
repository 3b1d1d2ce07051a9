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


class NotPositiveError(PcsftError):
    """A covariance operator is not positive semidefinite.

    When raised because the background level is too small,
    ``epsilon_min`` carries the minimal admissible value.
    """

    def __init__(self, message: str, epsilon_min: float | None = None):
        super().__init__(message)
        self.epsilon_min = epsilon_min


class InteractionError(PcsftError):
    """A Hamiltonian couples the two signal components.

    Only factorized dynamics (one generator per component) are supported.
    """


class SchemaError(PcsftError):
    """A JSON document does not match the expected schema.

    The message names the offending field.
    """


REJECTED_INPUT = (PcsftError, ValueError, OSError)  # what rejecting an input raises
