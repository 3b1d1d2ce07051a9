"""Shared random fixtures and independent oracles for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import strategies as st

from pcsft.hilbert import BipartiteState
from pcsft.covariance import BlockCovariance, factor_covariance
from pcsft.sampler import draw_chunks

# One line per acceptance criterion, replayed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def set_workers(monkeypatch):
    """A function that makes the draws after it run ``n`` workers, through
    PCSFT_THREADS, the one thread setting.  When the process may run on
    fewer than ``n`` CPUs, it also widens the set os.sched_getaffinity
    reports, which caps the setting."""

    def use(n: int):
        monkeypatch.setenv("PCSFT_THREADS", str(n))
        if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < n:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return use


def draw_samples(cov: BlockCovariance, seed: int, count: int) -> np.ndarray:
    """The joint (count, d1 + d2) samples draw_chunks draws through the
    covariance's factor, stored in order."""
    out = np.empty((count, cov.d1 + cov.d2), dtype=complex)

    def make_store(block_rows: int):
        def store(index: int, phi: np.ndarray):
            out[index * block_rows : index * block_rows + phi.shape[0]] = phi

        return store

    draw_chunks(factor_covariance(cov), seed, count, make_store)
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


@st.composite
def schmidt_states(draw, max_dim: int = 4, square: bool = False) -> BipartiteState:
    """States U diag(s) V with random unitaries and Schmidt coefficients s
    drawn directly, so product states, equal weights and (near-)degenerate
    spectra all occur, in every shape up to max_dim × max_dim (d1 = d2
    when ``square``)."""
    d1 = draw(st.integers(1, max_dim))
    d2 = d1 if square else draw(st.integers(1, max_dim))
    rank = min(d1, d2)
    s = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rank, max_size=rank)))
    if not s.max() > 0.0:
        s[0] = 1.0
    # Scale the largest coefficient to 1 first: squares of tiny ones
    # underflow, which would make the norm below inexact.
    s = s / s.max()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rand_unitary(rng, d1)[:, :rank]
    v = rand_unitary(rng, d2)[:rank, :]
    return BipartiteState(u @ np.diag(s / np.linalg.norm(s)) @ v)


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
