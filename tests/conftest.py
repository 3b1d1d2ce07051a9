"""Shared random fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from pcsft import BipartiteState, BlockCovariance
from pcsft.sampler import draw_chunks

# One line per acceptance criterion, replayed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def draw_samples(
    cov: BlockCovariance, seed: int, count: int, workers: int | None = None
) -> np.ndarray:
    """The joint (count, d1 + d2) samples draw_chunks draws, stored in order."""
    out = np.empty((count, cov.d1 + cov.d2), dtype=complex)

    def store(start: int, phi: np.ndarray):
        out[start : start + phi.shape[0]] = phi

    draw_chunks(cov, seed, count, store, workers)
    return out


def rand_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_state(rng: np.random.Generator, d1: int, d2: int) -> BipartiteState:
    g = rand_complex(rng, d1, d2)
    return BipartiteState(g / np.linalg.norm(g))


def rand_selfadjoint(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rand_complex(rng, d, d)
    return 0.5 * (m + m.conj().T)


def rand_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, d, d))
    # Fix the phase ambiguity of QR so draws are well-spread.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def rand_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rand_complex(rng, d, d)
    return m @ m.conj().T / d


def kron_average(psi: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> complex:
    """Third, independent route to <A1 (x) A2>: explicit Kronecker product
    acting on the row-major flattened state vector."""
    vec = psi.reshape(-1)
    return complex(np.vdot(vec, np.kron(a1, a2) @ vec))


def bisect_epsilon_min(psi: np.ndarray, tol: float = 1e-10) -> float:
    """Bisection on the background level for the smallest eps making the
    assembled covariance PSD.  Independent of the SVD-based closed form."""

    def min_eig(eps: float) -> float:
        d1, d2 = psi.shape
        top = np.hstack([psi @ psi.conj().T + eps * np.eye(d1), psi])
        bottom = np.hstack([psi.conj().T, psi.conj().T @ psi + eps * np.eye(d2)])
        return float(np.linalg.eigvalsh(np.vstack([top, bottom])).min())

    lo, hi = 0.0, 0.5
    if min_eig(lo) >= 0.0:
        return 0.0
    assert min_eig(hi) >= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def states_equal_up_to_phase(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-12
) -> bool:
    """Whether a = e^{i theta} b for some global phase theta."""
    overlap = complex(np.sum(a * np.conj(b)))
    if abs(overlap) < 1e-12:
        return False
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(a - phase * b))) <= tol
