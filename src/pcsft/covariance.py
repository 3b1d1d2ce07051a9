"""Block covariance operators of prequantum bi-signals.

A bi-signal (phi1, phi2) with values in H1 x H2 is a zero-mean complex
Gaussian field whose covariance has the 2 x 2 block structure

    D = [[D11, D12],
         [D21, D22]],      D21 = D12†,

with (Dij)_{lk} = E[phi_i[l] * conj(phi_j[k])].  The covariance encoding
a pure state Ψ is

    D11 = Ψ̂Ψ̂† + eps I,   D12 = Ψ̂,
    D21 = Ψ̂†,             D22 = Ψ̂†Ψ̂ + eps I,

where the background level eps >= epsilon_min(Ψ) makes the assembled
matrix positive semidefinite.  The off-diagonal block carries all
cross-component information, so phase transforms touch only D12/D21 and
exchange symmetry is read off the (anti)symmetry of D12.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NotPositiveError
from .hilbert import BipartiteState, _as_matrix

# Eigenvalues of the assembled matrix in [-PSD_TOL, 0) count as zero;
# anything below fails validation.
PSD_TOL = 1e-10

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """Validated 2 x 2 block covariance with background level epsilon.

    epsilon is carried as metadata (it is already folded into the
    diagonal blocks); renormalized averages subtract it back out.
    ``spectrum`` is the read-only (eigenvalues, eigenvectors) pair of the
    assembled matrix that validated it; the sampler's factor reuses it.
    """

    d11: np.ndarray
    d12: np.ndarray
    d21: np.ndarray
    d22: np.ndarray
    epsilon: float
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        d11 = _as_matrix(self.d11, "D11")
        d12 = _as_matrix(self.d12, "D12")
        d21 = _as_matrix(self.d21, "D21")
        d22 = _as_matrix(self.d22, "D22")
        n1, n2 = d12.shape
        if d11.shape != (n1, n1) or d22.shape != (n2, n2) or d21.shape != (n2, n1):
            raise DimensionError(
                "inconsistent block shapes: "
                f"D11 {d11.shape}, D12 {d12.shape}, D21 {d21.shape}, D22 {d22.shape}"
            )
        if np.max(np.abs(d11 - d11.conj().T)) > _HERMITIAN_TOL:
            raise NotPositiveError("D11 is not Hermitian")
        if np.max(np.abs(d22 - d22.conj().T)) > _HERMITIAN_TOL:
            raise NotPositiveError("D22 is not Hermitian")
        if np.max(np.abs(d21 - d12.conj().T)) > _HERMITIAN_TOL:
            raise NotPositiveError("D21 does not equal D12†")
        eps = float(self.epsilon)
        if eps < 0.0:
            raise NotPositiveError(f"epsilon must be nonnegative, got {eps}")
        d11, d12, d21, d22 = (b.copy() for b in (d11, d12, d21, d22))
        for block in (d11, d12, d21, d22):
            block.setflags(write=False)
        object.__setattr__(self, "d11", d11)
        object.__setattr__(self, "d12", d12)
        object.__setattr__(self, "d21", d21)
        object.__setattr__(self, "d22", d22)
        object.__setattr__(self, "epsilon", eps)
        evals, evecs = np.linalg.eigh(self.assembled())
        lo = float(evals.min())
        if lo < -PSD_TOL:
            raise NotPositiveError(
                f"assembled covariance has eigenvalue {lo:.3e} < -{PSD_TOL:.1e}"
            )
        evals.setflags(write=False)
        evecs.setflags(write=False)
        object.__setattr__(self, "spectrum", (evals, evecs))

    @property
    def d1(self) -> int:
        return self.d11.shape[0]

    @property
    def d2(self) -> int:
        return self.d22.shape[0]

    def assembled(self) -> np.ndarray:
        """The (d1+d2) x (d1+d2) covariance matrix."""
        top = np.hstack([self.d11, self.d12])
        bottom = np.hstack([self.d21, self.d22])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class PhasePair:
    """Per-component phase angles, stored reduced mod 2*pi."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        object.__setattr__(self, "gamma1", float(self.gamma1) % (2.0 * math.pi))
        object.__setattr__(self, "gamma2", float(self.gamma2) % (2.0 * math.pi))


class SymmetryTag(enum.Enum):
    BOSONIC = "Bosonic"
    FERMIONIC = "Fermionic"
    ANYONIC = "Anyonic"
    NONE = "None"


@dataclass(frozen=True)
class SymmetryClass:
    """Exchange-symmetry classification of a bi-signal / state.

    residual is the max-norm defect of the best-fitting condition;
    theta is set only for the anyonic tag.
    """

    tag: SymmetryTag
    residual: float
    theta: float | None = None


def epsilon_min(state: BipartiteState) -> float:
    """Minimal background level making the state's covariance PSD.

    Equals max over the singular values s of the coefficient matrix of
    s * (1 - s); always in [0, 1/4] for a normalized state.
    """
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    return float(max(0.0, np.max(s * (1.0 - s))))


def build_covariance(state: BipartiteState, epsilon: float) -> BlockCovariance:
    """Covariance of the Gaussian bi-signal encoding ``state``.

    Raises NotPositiveError (carrying the minimal admissible value) when
    epsilon is below epsilon_min(state) - 1e-12.
    """
    eps = float(epsilon)
    eps_min = epsilon_min(state)
    if eps < eps_min - 1e-12:
        raise NotPositiveError(
            f"epsilon = {eps} is below the minimal admissible value {eps_min}",
            epsilon_min=eps_min,
        )
    eps = max(eps, 0.0)
    psi = state.amplitudes
    d11 = psi @ psi.conj().T + eps * np.eye(state.d1)
    d22 = psi.conj().T @ psi + eps * np.eye(state.d2)
    return BlockCovariance(d11=d11, d12=psi, d21=psi.conj().T, d22=d22, epsilon=eps)


def phase_transform(cov: BlockCovariance, gamma: PhasePair) -> BlockCovariance:
    """Covariance of (e^{i g1} phi1, e^{i g2} phi2).

    Diagonal blocks are untouched; D12 picks up e^{i (g1 - g2)}.
    """
    factor = np.exp(1j * (gamma.gamma1 - gamma.gamma2))
    return BlockCovariance(
        d11=cov.d11,
        d12=factor * cov.d12,
        d21=np.conj(factor) * cov.d21,
        d22=cov.d22,
        epsilon=cov.epsilon,
    )


def permutation_transform(cov: BlockCovariance, variant: str) -> BlockCovariance:
    """Covariance after exchanging conjugated components.

    variant="sigma_star" maps (phi1, phi2) -> (conj(phi2), conj(phi1)):
    diagonal blocks swap and conjugate, D12 becomes its plain transpose.
    variant="sigma_star_minus" additionally flips the sign of the first
    output component, negating the off-diagonal blocks.
    """
    if cov.d1 != cov.d2:
        raise DimensionError(
            f"permutation needs equal component dimensions, got {cov.d1} and {cov.d2}"
        )
    if variant == "sigma_star":
        sign = 1.0
    elif variant == "sigma_star_minus":
        sign = -1.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    d12 = sign * cov.d12.T
    return BlockCovariance(
        d11=np.conj(cov.d22),
        d12=d12,
        d21=d12.conj().T,
        d22=np.conj(cov.d11),
        epsilon=cov.epsilon,
    )


def classify_symmetry(state: BipartiteState, tol: float) -> SymmetryClass:
    """Classify the exchange symmetry of a state's coefficient matrix.

    Bosonic when the matrix is symmetric within tol (max-norm), fermionic
    when antisymmetric, anyonic when it equals e^{i theta} times its
    transpose for the least-squares-aligned theta, otherwise none.  For a
    nonzero matrix an exact anyonic relation forces e^{2 i theta} = 1, so
    only theta in {0, pi} (i.e. the bosonic/fermionic cases) occur
    exactly; the anyonic branch can still fire on near-degenerate input.
    """
    if state.d1 != state.d2:
        raise DimensionError(
            f"symmetry classification needs d1 = d2, got {state.d1} and {state.d2}"
        )
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    psi = state.amplitudes
    r_bos = float(np.max(np.abs(psi - psi.T)))
    r_fer = float(np.max(np.abs(psi + psi.T)))
    if r_bos <= tol or r_fer <= tol:
        if r_bos <= r_fer:
            return SymmetryClass(tag=SymmetryTag.BOSONIC, residual=r_bos)
        return SymmetryClass(tag=SymmetryTag.FERMIONIC, residual=r_fer)
    overlap = complex(np.sum(psi * np.conj(psi.T)))
    theta = float(np.angle(overlap)) % (2.0 * math.pi) if overlap != 0 else 0.0
    r_any = float(np.max(np.abs(psi - np.exp(1j * theta) * psi.T)))
    if r_any <= tol:
        return SymmetryClass(tag=SymmetryTag.ANYONIC, residual=r_any, theta=theta)
    return SymmetryClass(tag=SymmetryTag.NONE, residual=r_any)


def dispersion(cov: BlockCovariance) -> float:
    """Total field dispersion E||phi||^2 = Tr D11 + Tr D22."""
    return float(np.trace(cov.d11).real + np.trace(cov.d22).real)


def scale_field(cov: BlockCovariance, factor: float) -> BlockCovariance:
    """Covariance of the rescaled field phi -> factor * phi.

    Every block (epsilon included) scales by factor**2, so the dispersion
    scales by factor**2 as well.
    """
    factor = float(factor)
    if not factor > 0.0:
        raise ValueError(f"factor must be positive, got {factor}")
    f2 = factor * factor
    return BlockCovariance(
        d11=f2 * cov.d11,
        d12=f2 * cov.d12,
        d21=f2 * cov.d21,
        d22=f2 * cov.d22,
        epsilon=f2 * cov.epsilon,
    )
