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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NormalizationError,
    RealityError,
    SelfAdjointnessError,
)

# Max-norm tolerance for the self-adjointness check; offending inputs are
# rejected, never silently symmetrized.
SELFADJOINT_TOL = 1e-12

# A complex scalar is reported as real when |imag| <= REAL_TOL * max(1, |real|).
REAL_TOL = 1e-10

# Norm gate for matricize() without the renormalize flag.
NORM_TOL = 1e-9


def as_real(value: complex, tol: float = REAL_TOL) -> float:
    """Convert a scalar that must be real, rejecting stray imaginary parts.

    Raises RealityError when |imag| exceeds tol * max(1, |real|); such a
    failure almost always indicates a conjugation-convention mistake in
    the caller.
    """
    value = complex(value)
    if abs(value.imag) > tol * max(1.0, abs(value.real)):
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


def require_selfadjoint(
    a: np.ndarray, tol: float = SELFADJOINT_TOL, name: str = "operator"
) -> np.ndarray:
    """Validate A = A† in max-norm and return A as a complex array."""
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise SelfAdjointnessError(f"{name} is not square: shape {a.shape}")
    defect = np.max(np.abs(a - a.conj().T))
    if defect > tol:
        raise SelfAdjointnessError(
            f"{name} is not self-adjoint: max |A - A†| = {defect:.3e} > {tol:.1e}"
        )
    return a


def conj_operator(a: np.ndarray) -> np.ndarray:
    """Complex conjugate of an operator, defined by <Ā u, v> = <v̄, A ū>.

    In the fixed real basis this is entrywise conjugation.
    """
    return np.conj(_as_matrix(a))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


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
        if abs(norm_sq - 1.0) > 2e-9:
            raise NormalizationError(
                f"state has squared norm {norm_sq!r}, expected 1 "
                "(pass renormalize=True to matricize() to rescale)"
            )
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def d1(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def d2(self) -> int:
        return self.amplitudes.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def matricize(coeffs: np.ndarray, renormalize: bool = False) -> BipartiteState:
    """Build a BipartiteState whose coefficient matrix is exactly ``coeffs``.

    Without ``renormalize`` the Frobenius norm must be 1 within 1e-9 and
    the matrix is stored as given; with it, any nonzero matrix is rescaled
    to unit norm.
    """
    coeffs = _as_matrix(coeffs, "coeffs")
    norm = float(np.linalg.norm(coeffs))
    if renormalize:
        if norm == 0.0:
            raise NormalizationError("cannot renormalize the zero matrix")
        coeffs = coeffs / norm
    elif abs(norm - 1.0) > NORM_TOL:
        raise NormalizationError(
            f"coeffs has Frobenius norm {norm!r}; pass renormalize=True to rescale"
        )
    return BipartiteState(coeffs)


def _require_density(rho: np.ndarray) -> np.ndarray:
    """Internal sanity gate: Hermitian, unit trace, nonnegative spectrum."""
    defect = np.max(np.abs(rho - rho.conj().T))
    if defect > 1e-12:
        raise SelfAdjointnessError(f"density operator not Hermitian: {defect:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-12:
        raise NormalizationError(f"density operator has trace {tr!r}, expected 1")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -1e-12:
        raise ValueError(f"density operator has negative eigenvalue {lo:.3e}")
    return rho


def reduced_density(state: BipartiteState, side: int) -> np.ndarray:
    """Reduced density operator of one subsystem.

    side=1 returns Ψ̂ Ψ̂†; side=2 returns conj(Ψ̂† Ψ̂), the entrywise
    conjugate being what makes Tr[ρ2 A] reproduce <I (x) A> under the
    real-basis conventions of this module.
    """
    psi = state.amplitudes
    if side == 1:
        rho = psi @ psi.conj().T
    elif side == 2:
        rho = np.conj(psi.conj().T @ psi)
    else:
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    # Symmetrize away rounding noise; the construction is Hermitian.
    rho = 0.5 * (rho + rho.conj().T)
    return _require_density(rho)


def _check_pair(state: BipartiteState, a1: np.ndarray, a2: np.ndarray):
    a1 = require_selfadjoint(a1, name="A1")
    a2 = require_selfadjoint(a2, name="A2")
    if a1.shape != (state.d1, state.d1):
        raise DimensionError(
            f"A1 has shape {a1.shape}, state needs ({state.d1}, {state.d1})"
        )
    if a2.shape != (state.d2, state.d2):
        raise DimensionError(
            f"A2 has shape {a2.shape}, state needs ({state.d2}, {state.d2})"
        )
    return a1, a2


def quantum_average_tensor(
    state: BipartiteState, a1: np.ndarray, a2: np.ndarray
) -> float:
    """<A1 (x) A2 Ψ, Ψ> by explicit contraction over the amplitudes."""
    a1, a2 = _check_pair(state, a1, a2)
    psi = state.amplitudes
    value = np.einsum("ik,jl,kl,ij->", a1, a2, psi, psi.conj())
    return as_real(value, tol=1e-12)


def quantum_average_trace(
    state: BipartiteState, a1: np.ndarray, a2: np.ndarray
) -> float:
    """Same average via the operator representation: Tr[Ψ̂ Ā2 Ψ̂† A1].

    Agrees with quantum_average_tensor to within 1e-12 for all valid
    inputs; the two code paths are kept independent on purpose.
    """
    a1, a2 = _check_pair(state, a1, a2)
    psi = state.amplitudes
    value = np.trace(psi @ np.conj(a2) @ psi.conj().T @ a1)
    return as_real(value, tol=1e-12)


def marginal_average(state: BipartiteState, a: np.ndarray, side: int) -> float:
    """Expectation of a one-sided observable: Tr[Ψ̂Ψ̂† A] or Tr[Ψ̂†Ψ̂ Ā]."""
    a = require_selfadjoint(a, name="A")
    psi = state.amplitudes
    if side == 1:
        if a.shape != (state.d1, state.d1):
            raise DimensionError(
                f"A has shape {a.shape}, side 1 needs ({state.d1}, {state.d1})"
            )
        value = np.trace(psi @ psi.conj().T @ a)
    elif side == 2:
        if a.shape != (state.d2, state.d2):
            raise DimensionError(
                f"A has shape {a.shape}, side 2 needs ({state.d2}, {state.d2})"
            )
        value = np.trace(psi.conj().T @ psi @ np.conj(a))
    else:
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    return as_real(value, tol=1e-12)
