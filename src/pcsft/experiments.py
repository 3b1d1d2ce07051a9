"""Beam-splitter bunching and anti-bunching experiments.

Two identical signals enter a 50/50 beam splitter, one per input port
(basis order [R, L] -> indices [0, 1]).  The experiment classifies the
covariance g_xy of the output-port intensities of the two bi-signal
components: anti-symmetric inputs put all intensity covariance on
opposite ports (anti-bunching, g_RR = 0 < g_RL), symmetric inputs on the
same port (bunching, g_RL = 0 < g_RR).

Spin-1/2 variants use component spaces C^2_space (x) C^2_internal with
the space index major, the beam splitter acting on the space factor only
and intensities summed over the internal index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import UnitaryChannel, apply_to_state
from .covariance import SYMMETRY_TOL, build_covariance, classify_symmetry
from .hilbert import BipartiteState
from .quadratic import DEFAULT_SAMPLES, MIN_SAMPLES, Estimate, QuadraticForm, cross_estimates

PORTS = ("R", "L")


@dataclass(frozen=True)
class ExperimentReport:
    """What one experiment run computed.  ``g`` maps each output-port pair
    x + y, for x, y in PORTS, to the Monte Carlo estimate of its intensity
    covariance g_xy, with the analytic value attached; an entry passes when
    it lies within SE_BAND standard errors of that value.  The CLI adds the
    run's inputs when it lays out the report."""

    epsilon: float
    g: dict[str, Estimate]
    classified_symmetry: str

    @property
    def passed(self) -> bool:
        return all(est.within() for est in self.g.values())


def beamsplitter_unitary() -> np.ndarray:
    """50/50 beam splitter in the [R, L] basis: rotation by pi/4."""
    return np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


def beamsplitter_channel(internal_dim: int) -> UnitaryChannel:
    """The beam splitter on both components, C^2_space (x) C^internal_dim
    (space major), acting on the space factor only."""
    u = np.kron(beamsplitter_unitary(), np.eye(internal_dim, dtype=complex))
    return UnitaryChannel(u1=u, u2=u)


def input_state(statistics: str) -> BipartiteState:
    """Two-port input with one excitation per port.

    boson:   (|RL> + |LR>) / sqrt(2)   (symmetric coefficient matrix)
    fermion: (|RL> - |LR>) / sqrt(2)   (antisymmetric)
    """
    c = 1.0 / np.sqrt(2.0)
    if statistics == "boson":
        amp = np.array([[0.0, c], [c, 0.0]], dtype=complex)
    elif statistics == "fermion":
        amp = np.array([[0.0, c], [-c, 0.0]], dtype=complex)
    else:
        raise ValueError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")
    return BipartiteState(amp)


def intensity_observable(port: str, internal_dim: int, side: int) -> QuadraticForm:
    """Projector onto one output port, summed over internal indices.

    The component space is C^2_space (x) C^internal_dim, space major.
    Evaluating the form gives the port intensity sum_s |phi^s(port)|^2
    of the chosen component.
    """
    if port not in PORTS:
        raise ValueError(f"port must be one of {PORTS}, got {port!r}")
    proj = np.zeros((len(PORTS), len(PORTS)), dtype=complex)
    k = PORTS.index(port)
    proj[k, k] = 1.0
    op = np.kron(proj, np.eye(internal_dim, dtype=complex))
    return QuadraticForm(operator=op, side=side)


def _experiment_input(statistics: str, spin: str) -> tuple[BipartiteState, int]:
    """The input state and the internal dimension of each component.

    The state is a space factor (x) an internal factor on C^2_space (x)
    C^internal per component, space major.  At spin 0 the internal factor
    is [[1]].  At spin 1/2 it is the antisymmetric pair (|+-> - |-+>)/sqrt2,
    so the space factor takes the opposite symmetry and the product has
    the symmetry of ``statistics``.
    """
    if spin == "0":
        space, internal = statistics, np.ones((1, 1))
    elif spin == "half":
        # An unknown name passes through, for input_state to reject.
        space = {"boson": "fermion", "fermion": "boson"}.get(statistics, statistics)
        internal = input_state("fermion").amplitudes
    else:
        raise ValueError(f"spin must be '0' or 'half', got {spin!r}")
    # Space major: the amplitude of |x s> (x) |y t> is space[x, y] * internal[s, t].
    amp = np.einsum("xy,st->xsyt", input_state(space).amplitudes, internal)
    return BipartiteState(amp.reshape(2 * len(internal), -1)), len(internal)


def run_beamsplitter(
    statistics: str,
    spin: str = "0",
    epsilon: float | str = "auto",
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
) -> ExperimentReport:
    """Full pipeline: input state -> beam splitter -> covariance ->
    analytic g-matrix and seeded Monte Carlo confirmation.

    epsilon is passed to build_covariance ("auto" or a number).  A g
    entry passes when |mc - analytic| <= SE_BAND standard errors.  The
    four port intensities are evaluated once per sample and reduced to
    their moments as they are drawn; g_xy pairs port x's side-1 form
    with port y's side-2 form.  The report holds only what the run
    computed; ``pcsft experiment`` adds the inputs it echoes.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need n_samples >= {MIN_SAMPLES}, got {n_samples}")
    psi_in, internal_dim = _experiment_input(statistics, spin)
    symmetry = classify_symmetry(psi_in, tol=SYMMETRY_TOL)

    psi_out = apply_to_state(beamsplitter_channel(internal_dim), psi_in)

    cov = build_covariance(psi_out, epsilon)
    side1 = [intensity_observable(x, internal_dim, side=1) for x in PORTS]
    side2 = [intensity_observable(y, internal_dim, side=2) for y in PORTS]
    estimates = cross_estimates(cov, side1, side2, seed=seed, count=n_samples)
    g = {x + y: est for x, row in zip(PORTS, estimates) for y, est in zip(PORTS, row)}
    return ExperimentReport(epsilon=cov.epsilon, g=g, classified_symmetry=symmetry.tag.value)
