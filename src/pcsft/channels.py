"""Classical signal channels for factorized unitary quantum channels.

A quantum channel U1 (x) U2 maps a state's coefficient matrix to
U1 Ψ̂ U2ᵀ (the transpose is forced by the row-major coefficient-matrix
convention).  On the classical side the second signal component carries
the conjugated amplitudes (its marginal covariance is the conjugate of
the reduced density operator, and observables read it through a
conjugation), so the channel acts on samples as

    (phi1, phi2)  ->  (U1 phi1, conj(U2) phi2).

With that convention the sample path, the covariance path and the state
path all agree: pushing the covariance through the channel equals
building the covariance of the transformed state, for every complex
factorized channel.  For real channels (e.g. the beam splitter) the
conjugation is invisible.

Schrödinger propagation is deterministic dynamics with a random initial
condition: evolution_channel builds U_jt = exp(-i t H_j / hbar) by
Hermitian eigendecomposition, and the channel operations apply it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import BlockCovariance
from .errors import DimensionError
from .hilbert import BipartiteState, _as_matrix, _store, max_defect, require_selfadjoint

UNITARY_TOL = 1e-10


def _require_unitary(u: np.ndarray, name: str) -> np.ndarray:
    u = _as_matrix(u, name)
    if u.shape[0] != u.shape[1]:
        raise DimensionError(f"{name} is not square: shape {u.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf defect
        gram = u.conj().T @ u
    defect = max_defect(gram, np.eye(u.shape[0]))
    if defect > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: max |U†U - I| = {defect:.3e}")
    return u


@dataclass(frozen=True, eq=False)
class UnitaryChannel:
    """Factorized unitary channel (U1 on H1, U2 on H2)."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        _store(self, u1=_require_unitary(self.u1, "U1"), u2=_require_unitary(self.u2, "U2"))


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Interaction-free generator pair (H1, H2), with Planck constant hbar."""

    h1: np.ndarray
    h2: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        h1 = require_selfadjoint(self.h1, name="H1")
        h2 = require_selfadjoint(self.h2, name="H2")
        if not float(self.hbar) > 0.0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        _store(self, h1=h1, h2=h2, hbar=float(self.hbar))


def _require_fit(ch: UnitaryChannel, what: str, operand) -> None:
    """Raise DimensionError unless ``operand`` (a state or a covariance)
    has the channel's dims."""
    dims, channel = (operand.d1, operand.d2), (ch.u1.shape[0], ch.u2.shape[0])
    if dims != channel:
        raise DimensionError(f"{what} dims {dims} do not match channel {channel}")


def apply_to_state(ch: UnitaryChannel, state: BipartiteState) -> BipartiteState:
    """Transformed state: coefficient matrix U1 Ψ̂ U2ᵀ."""
    _require_fit(ch, "state", state)
    return BipartiteState(ch.u1 @ state.amplitudes @ ch.u2.T)


def apply_to_covariance(ch: UnitaryChannel, cov: BlockCovariance) -> BlockCovariance:
    """Push the block covariance through the channel.

    Matches the sample action: with W = conj(U2) on the second component,
    D12 -> U1 D12 U2ᵀ, so D11 -> U1 D11 U1† and D22 -> W D22 W†.  The
    epsilon background is untouched (U eps I U† = eps I), so a covariance
    built from a state maps to the covariance built from the transformed
    state.
    """
    _require_fit(ch, "covariance", cov)
    return BlockCovariance(d12=ch.u1 @ cov.d12 @ ch.u2.T, epsilon=cov.epsilon)


def evolution_channel(h: Hamiltonian, t: float) -> UnitaryChannel:
    """The channel exp(-i t H1 / hbar) (x) exp(-i t H2 / hbar).

    Matrix exponentials are exact via the Hermitian eigendecomposition.
    Raises ValueError when an eigenvalue E is beyond the float range, and
    OverflowError when a phase t * E / hbar is.
    """
    t = float(t)

    def expfactor(ham: np.ndarray, name: str) -> np.ndarray:
        evals, evecs = np.linalg.eigh(ham)
        if not np.all(np.isfinite(evals)):
            raise ValueError(f"{name} has an eigenvalue beyond the float range")
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.exp(-1j * t * evals / h.hbar)
        if not np.all(np.isfinite(phases)):
            raise OverflowError(
                f"phase t * E / hbar overflows for t = {t}, hbar = {h.hbar}"
            )
        return (evecs * phases[None, :]) @ evecs.conj().T

    return UnitaryChannel(u1=expfactor(h.h1, "H1"), u2=expfactor(h.h2, "H2"))

