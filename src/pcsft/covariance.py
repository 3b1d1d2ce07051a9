"""Block covariance operators of prequantum bi-signals.

A bi-signal (phi1, phi2) with values in H1 x H2 is a zero-mean complex
Gaussian field whose covariance has the 2 x 2 block structure

    D = [[D11, D12],
         [D21, D22]],      D21 = D12†,

with (Dij)_{lk} = E[phi_i[l] * conj(phi_j[k])].  The covariance encoding
a pure state Ψ is

    D11 = Ψ̂Ψ̂† + eps I,   D12 = Ψ̂,
    D21 = Ψ̂†,             D22 = Ψ̂†Ψ̂ + eps I,

so it is fixed by the pair (Ψ̂, eps).  A covariance assembles D once,
on construction, and its blocks are read-only views of it.  In the
Schmidt basis of Ψ̂ = U diag(s) V† the assembled matrix
splits into 2 x 2 blocks [[s² + eps, s], [s, s² + eps]] plus eps on the
unpaired modes, with eigenvalues s² + eps ± s and eps; it is positive
semidefinite exactly when eps >= epsilon_min = max(0, max s (1 - s)).
The off-diagonal block carries all cross-component information, so
exchange symmetry is read off the (anti)symmetry of D12.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NotPositiveError
from .hilbert import BipartiteState, _as_matrix, _store

# Margin added to epsilon_min when epsilon="auto": keeps the covariance
# factorization away from its singular boundary while adding little
# background variance to the estimators.
AUTO_EPSILON_MARGIN = 0.05

# Rounding below epsilon_min that construction still admits, as epsilon_min.
EPSILON_SLACK = 1e-12

# Max-norm tolerance of classify_symmetry in the experiments, and the
# default of `pcsft classify --tol`.
SYMMETRY_TOL = 1e-10

# Largest max |F F† - D| of the factor, relative to max |D|, on top of
# what clipping its eigenvalues moved.  Measured at most 6.9e-15 over
# random states up to 50 × 50 and epsilon from epsilon_min to 1e300.
FACTOR_RESIDUAL_TOL = 1e-12


def _epsilon_min(psi: np.ndarray) -> float:
    s = np.linalg.svd(psi, compute_uv=False)
    if not math.isfinite(float(s[0]) * float(s[0])):  # a Python float overflows silently
        raise ValueError(f"D12 has norm {s[0]:.3e}: D11 = D12 D12† + epsilon I overflows")
    return float(max(0.0, np.max(s * (1.0 - s))))


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """The covariance fixed by D12 = Ψ̂ (any finite d1 x d2 matrix) and
    the background level epsilon.

    D is assembled once, on construction, and stored read-only; D11, D21
    and D22 are read-only views of its blocks.  Construction validates
    with one SVD of Ψ̂: epsilon="auto" resolves to epsilon_min +
    AUTO_EPSILON_MARGIN, a value below epsilon_min - EPSILON_SLACK raises
    NotPositiveError (carrying epsilon_min), a value that is not a finite
    number raises ValueError, and a value in [-EPSILON_SLACK, 0) becomes 0.
    """

    d12: np.ndarray
    epsilon: float
    _assembled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        psi = _as_matrix(self.d12, "D12")
        eps_min = _epsilon_min(psi)
        if self.epsilon == "auto":
            eps = eps_min + AUTO_EPSILON_MARGIN
        else:
            eps = float(self.epsilon)
        if eps < eps_min - EPSILON_SLACK:
            raise NotPositiveError(
                f"epsilon = {eps} is below the minimal admissible value {eps_min}",
                epsilon_min=eps_min,
            )
        if not math.isfinite(eps):
            raise ValueError(f"epsilon must be a finite number, got {eps}")
        eps = eps if eps > 0.0 else 0.0  # never -0.0
        d1, d2 = psi.shape
        d21 = psi.conj().T
        top = np.hstack([psi @ d21 + eps * np.eye(d1), psi])
        bottom = np.hstack([d21, d21 @ psi + eps * np.eye(d2)])
        _store(self, d12=psi, epsilon=eps, _assembled=np.vstack([top, bottom]))

    @property
    def d11(self) -> np.ndarray:
        """D11 = Ψ̂Ψ̂† + eps I."""
        return self._assembled[: self.d1, : self.d1]

    @property
    def d21(self) -> np.ndarray:
        """D21 = Ψ̂†."""
        return self._assembled[self.d1 :, : self.d1]

    @property
    def d22(self) -> np.ndarray:
        """D22 = Ψ̂†Ψ̂ + eps I."""
        return self._assembled[self.d1 :, self.d1 :]

    @property
    def d1(self) -> int:
        return self.d12.shape[0]

    @property
    def d2(self) -> int:
        return self.d12.shape[1]

    def assembled(self) -> np.ndarray:
        """The (d1+d2) x (d1+d2) covariance matrix, read-only."""
        return self._assembled


def factor_covariance(cov: BlockCovariance) -> np.ndarray:
    """The positive semi-definite square root F = V sqrt(L) V† of the
    assembled covariance, so F F† equals it, read-only.

    Built from a Hermitian eigendecomposition of the assembled matrix.
    The covariance is PSD by construction, so eigenvalues below zero are
    rounding, or an admitted epsilon at most EPSILON_SLACK below
    epsilon_min, and are clipped to zero.  The root is unique, so it does
    not depend on the eigenvector basis chosen inside a repeated
    eigenvalue.  A residual max |F F† - D| above FACTOR_RESIDUAL_TOL ×
    max |D| plus the clipped amount, capped at EPSILON_SLACK, is a fault
    of the program, not of the input: it raises FloatingPointError.
    """
    assembled = cov.assembled()
    evals, evecs = np.linalg.eigh(assembled)
    clipped = min(max(-float(evals[0]), 0.0), EPSILON_SLACK)  # eigh sorts them ascending
    evals = np.clip(evals, 0.0, None)
    f = (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T
    residual = float(np.max(np.abs(f @ f.conj().T - assembled)))
    scale = float(np.max(np.abs(assembled)))
    if residual > FACTOR_RESIDUAL_TOL * scale + clipped:
        raise FloatingPointError(
            f"factorization residual {residual:.3e} exceeds {FACTOR_RESIDUAL_TOL:.0e} "
            f"of the largest covariance entry {scale:.3e} plus {clipped:.3e} clipped"
        )
    f.setflags(write=False)
    return f


class SymmetryTag(enum.Enum):
    BOSONIC = "Bosonic"
    FERMIONIC = "Fermionic"
    NONE = "None"


@dataclass(frozen=True)
class SymmetryClass:
    """Exchange-symmetry classification of a bi-signal / state.

    residual is the max-norm defect of the condition the tag names; for
    the none tag, of the condition nearer in Frobenius norm.
    """

    tag: SymmetryTag
    residual: float


def epsilon_min(state: BipartiteState) -> float:
    """Minimal background level making the state's covariance PSD.

    Equals max over the singular values s of the coefficient matrix of
    s * (1 - s); always in [0, 1/4] for a normalized state.
    """
    return _epsilon_min(state.amplitudes)


def build_covariance(state: BipartiteState, epsilon: float | str) -> BlockCovariance:
    """Covariance of the Gaussian bi-signal encoding ``state``.

    epsilon="auto" resolves to epsilon_min(state) + AUTO_EPSILON_MARGIN.
    Raises NotPositiveError (carrying the minimal admissible value) when
    epsilon is below epsilon_min(state) - EPSILON_SLACK.  The covariance's
    ``epsilon`` is the level it uses: [-EPSILON_SLACK, 0) becomes 0.
    """
    return BlockCovariance(d12=state.amplitudes, epsilon=epsilon)


def classify_symmetry(state: BipartiteState, tol: float) -> SymmetryClass:
    """Classify the exchange symmetry of a state's coefficient matrix ψ.

    Bosonic when ψ is symmetric within tol (max-norm), fermionic when
    antisymmetric, otherwise none.  No other exchange phase needs a class:
    ψ = e^{iθ} ψᵀ forces e^{2iθ} = 1 for a nonzero ψ.  Since
    ||ψ ∓ ψᵀ||²_F = 2||ψ||²_F ∓ 2 Tr(ψ ψ̄), with Tr(ψ ψ̄) =
    Σ_ij ψ_ij conj(ψ_ji) real, a none state reports the defect of the
    condition nearer in Frobenius norm: the symmetric one when
    Re Tr(ψ ψ̄) >= 0, else the antisymmetric one.
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
    bosonic_nearer = np.sum(psi * np.conj(psi.T)).real >= 0.0
    return SymmetryClass(tag=SymmetryTag.NONE, residual=r_bos if bosonic_nearer else r_fer)
