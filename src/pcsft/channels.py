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
condition: U_jt = exp(-i t H_j / hbar) built by Hermitian
eigendecomposition, then delegated to the channel operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import BlockCovariance
from .errors import DimensionError
from .hilbert import BipartiteState, _as_matrix, require_selfadjoint

UNITARY_TOL = 1e-10


def _require_unitary(u: np.ndarray, name: str) -> np.ndarray:
    u = _as_matrix(u, name)
    if u.shape[0] != u.shape[1]:
        raise DimensionError(f"{name} is not square: shape {u.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: max |U†U - I| = {defect:.3e}")
    return u


@dataclass(frozen=True, eq=False)
class UnitaryChannel:
    """Factorized unitary channel (U1 on H1, U2 on H2)."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        u1 = _require_unitary(self.u1, "U1").copy()
        u2 = _require_unitary(self.u2, "U2").copy()
        u1.setflags(write=False)
        u2.setflags(write=False)
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Interaction-free generator pair (H1, H2), with Planck constant hbar."""

    h1: np.ndarray
    h2: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        h1 = require_selfadjoint(self.h1, name="H1").copy()
        h2 = require_selfadjoint(self.h2, name="H2").copy()
        if not float(self.hbar) > 0.0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        h1.setflags(write=False)
        h2.setflags(write=False)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "hbar", float(self.hbar))


def apply_to_state(ch: UnitaryChannel, state: BipartiteState) -> BipartiteState:
    """Transformed state: coefficient matrix U1 Ψ̂ U2ᵀ."""
    if state.d1 != ch.u1.shape[0] or state.d2 != ch.u2.shape[0]:
        raise DimensionError(
            f"state dims ({state.d1}, {state.d2}) do not match channel "
            f"({ch.u1.shape[0]}, {ch.u2.shape[0]})"
        )
    return BipartiteState(ch.u1 @ state.amplitudes @ ch.u2.T)


def apply_to_covariance(ch: UnitaryChannel, cov: BlockCovariance) -> BlockCovariance:
    """Push the block covariance through the channel.

    Matches the sample action: with W = conj(U2) on the second component,
    D11 -> U1 D11 U1†, D22 -> W D22 W†, D12 -> U1 D12 U2ᵀ.  The epsilon
    background is untouched (U eps I U† = eps I) and positivity is
    preserved, so a covariance built from a state maps to the covariance
    built from the transformed state.
    """
    if cov.d1 != ch.u1.shape[0] or cov.d2 != ch.u2.shape[0]:
        raise DimensionError(
            f"covariance dims ({cov.d1}, {cov.d2}) do not match channel "
            f"({ch.u1.shape[0]}, {ch.u2.shape[0]})"
        )
    w = np.conj(ch.u2)
    d12 = ch.u1 @ cov.d12 @ ch.u2.T
    return BlockCovariance(
        d11=ch.u1 @ cov.d11 @ ch.u1.conj().T,
        d12=d12,
        d21=d12.conj().T,
        d22=w @ cov.d22 @ w.conj().T,
        epsilon=cov.epsilon,
    )


def evolution_channel(h: Hamiltonian, t: float) -> UnitaryChannel:
    """The channel exp(-i t H1 / hbar) (x) exp(-i t H2 / hbar).

    Matrix exponentials are exact via the Hermitian eigendecomposition.
    """
    t = float(t)

    def expfactor(ham: np.ndarray) -> np.ndarray:
        evals, evecs = np.linalg.eigh(ham)
        phases = np.exp(-1j * t * evals / h.hbar)
        return (evecs * phases[None, :]) @ evecs.conj().T

    return UnitaryChannel(u1=expfactor(h.h1), u2=expfactor(h.h2))


def propagate(h: Hamiltonian, t: float, x):
    """Propagate a state or a covariance for time t under (H1, H2)."""
    ch = evolution_channel(h, t)
    if isinstance(x, BipartiteState):
        return apply_to_state(ch, x)
    if isinstance(x, BlockCovariance):
        return apply_to_covariance(ch, x)
    raise TypeError(f"cannot propagate object of type {type(x).__name__}")

