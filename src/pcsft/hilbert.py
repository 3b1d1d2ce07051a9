"""Finite-dimensional complex Hilbert-space core.

States of a composite system live in H1 (x) H2 with dim(H1) = d1 and
dim(H2) = d2.  A pure state is stored as its coefficient matrix in the
canonical coordinate bases, which are real: the d1 x d2 matrix of
amplitudes is simultaneously the state vector (flattened row-major) and
a linear map H2 -> H1.  All operator conventions below refer to that
fixed real basis.

Inner-product convention
------------------------
    <u, v> = sum_k u_k * conj(v_k)

i.e. linear in the *first* argument.  Every formula in this module (and
everything downstream) assumes it.  With this convention the complex
conjugate of an operator is entrywise conjugation of its matrix, and the
adjoint is the conjugate transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NormalizationError,
    RealityError,
    SelfAdjointnessError,
)

# Tolerance of the self-adjointness check, relative to max(max |Re A|, max |Im A|),
# finite for any finite A (max |A| may overflow): an input within it becomes its
# Hermitian part, one beyond it is rejected.
SELFADJOINT_TOL = 1e-12

# A state is normalized when |‖ψ‖² - 1| <= NORM_TOL.
NORM_TOL = 2e-9

# A quantum average is reported as real when
# |imag| <= AVERAGE_REAL_TOL * max(1, scale), scale = max |A1| · max |A2|.
AVERAGE_REAL_TOL = 1e-12


def as_real(value: complex, scale: float) -> float:
    """Convert a scalar that must be real, rejecting stray imaginary parts.

    Raises RealityError when |imag| exceeds AVERAGE_REAL_TOL * max(1,
    scale): an average of exactly Hermitian A1, A2 is real up to rounding,
    which grows with max |A1| · max |A2|, not with the average, which may
    cancel.  A failure is a conjugation mistake of the program, not a
    rejected input, so the CLI exits 3 on it.
    """
    value = complex(value)
    if abs(value.imag) > AVERAGE_REAL_TOL * max(1.0, scale):
        raise RealityError(
            f"expected a real scalar, got {value!r} "
            f"(|imag| = {abs(value.imag):.3e} above tolerance)"
        )
    return value.real


def _as_matrix(a: np.ndarray, name: str = "operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError(f"{name} has a zero dimension: shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _store(obj, **fields) -> None:
    """Set the fields of the frozen dataclass ``obj``, each array as a
    read-only copy, so no caller's array can change a stored value."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def max_defect(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over the entries, the defect every matrix identity
    check compares with its tolerance.  Computed without floating-point
    warnings: a difference that overflows, or is not a number, is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.max(np.abs(a - b)))
    return defect if defect <= math.inf else math.inf


def require_selfadjoint(a: np.ndarray, name: str = "operator") -> np.ndarray:
    """Validate A = A† in max-norm, relative to A's largest real or imaginary
    part, and return the one matrix every use of A reads: its Hermitian
    part, summed from halves; bit for bit A where A = A†."""
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise SelfAdjointnessError(f"{name} is not square: shape {a.shape}")
    adjoint = a.conj().T
    defect = max_defect(a, adjoint)
    tol = SELFADJOINT_TOL * max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag))))
    if defect > tol:
        raise SelfAdjointnessError(
            f"{name} is not self-adjoint: max |A - A†| = {defect:.3e} > {tol:.3e} "
            f"= {SELFADJOINT_TOL:.0e} × max(max |Re A|, max |Im A|)"
        )
    return np.where(a == adjoint, a, 0.5 * a + 0.5 * adjoint)


def require_observable(a: np.ndarray, dim: int, name: str) -> np.ndarray:
    """Validate an observable of a side of dimension ``dim``: a self-adjoint
    dim x dim matrix.  Returns its matrix, as require_selfadjoint does."""
    a = require_selfadjoint(a, name)
    if a.shape != (dim, dim):
        raise DimensionError(f"{name} has shape {a.shape}, state needs ({dim}, {dim})")
    return a


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Normalized pure state of a composite system, stored as its d1 x d2
    coefficient matrix.

    Row index runs over the H1 basis, column index over the H2 basis.
    The matrix doubles as the operator representation of the state: it
    maps H2 -> H1 by ordinary matrix-vector multiplication.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _as_matrix(self.amplitudes, "amplitudes")
        with np.errstate(over="ignore"):  # huge amplitudes: the gate sees inf
            norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(f"state has squared norm {norm_sq!r}, expected 1")
        _store(self, amplitudes=amp)

    @property
    def d1(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def d2(self) -> int:
        return self.amplitudes.shape[1]


def quantum_average_tensor(
    state: BipartiteState, a1: np.ndarray, a2: np.ndarray
) -> float:
    """<A1 (x) A2 Ψ, Ψ> by explicit contraction over the amplitudes."""
    a1 = require_observable(a1, state.d1, "A1")
    a2 = require_observable(a2, state.d2, "A2")
    psi = state.amplitudes
    value = np.einsum("ik,jl,kl,ij->", a1, a2, psi, psi.conj())
    return as_real(value, float(np.max(np.abs(a1))) * float(np.max(np.abs(a2))))


def quantum_average_trace(
    state: BipartiteState, a1: np.ndarray, a2: np.ndarray
) -> float:
    """Same average via the operator representation: Tr[Ψ̂ Ā2 Ψ̂† A1].

    Agrees with quantum_average_tensor to within 1e-12 for all valid
    inputs; the two code paths are kept independent on purpose.
    """
    a1 = require_observable(a1, state.d1, "A1")
    a2 = require_observable(a2, state.d2, "A2")
    psi = state.amplitudes
    value = np.trace(psi @ np.conj(a2) @ psi.conj().T @ a1)
    return as_real(value, float(np.max(np.abs(a1))) * float(np.max(np.abs(a2))))


def marginal_average(state: BipartiteState, a: np.ndarray, side: int) -> float:
    """Expectation of a one-sided observable, <A (x) I Ψ, Ψ> (side 1) or
    <I (x) A Ψ, Ψ> (side 2): the trace route with the identity on the
    other side, Tr[Ψ̂ Ī Ψ̂† A] = Tr[Ψ̂Ψ̂† A]."""
    if side == 1:
        return quantum_average_trace(state, a, np.eye(state.d2))
    if side == 2:
        return quantum_average_trace(state, np.eye(state.d1), a)
    raise ValueError(f"side must be 1 or 2, got {side!r}")
