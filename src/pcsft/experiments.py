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
from .covariance import build_covariance, classify_symmetry, epsilon_min
from .errors import DimensionError
from .hilbert import BipartiteState
from .quadratic import Estimate, QuadraticForm, analytic_cov, form_moments
from .sampler import PRNG_ID

PORTS = ("R", "L")
PORT_INDEX = {"R": 0, "L": 1}

# Margin added to epsilon_min when epsilon="auto": keeps the covariance
# factorization away from its singular boundary while adding little
# background variance to the estimators.
AUTO_EPSILON_MARGIN = 0.05

MIN_SAMPLES = 1000  # fewest samples an experiment accepts

# Acceptance band for Monte Carlo vs analytic, in standard errors.
SE_BAND = 5.0


@dataclass(frozen=True)
class IndexLayout:
    """Row-major (space major, internal minor) flattening of C^m (x) C^n."""

    space_dim: int
    internal_dim: int

    def __post_init__(self):
        if self.space_dim < 1 or self.internal_dim < 1:
            raise DimensionError(
                f"layout dims must be positive, got "
                f"({self.space_dim}, {self.internal_dim})"
            )

    @property
    def total_dim(self) -> int:
        return self.space_dim * self.internal_dim


@dataclass(frozen=True)
class PortCorrelation:
    """One g-matrix entry: analytic value, MC estimate, acceptance flag."""

    analytic: float
    estimate: Estimate
    passed: bool


@dataclass(frozen=True)
class GMatrix:
    """Intensity covariances g_xy for output ports x, y in {R, L}."""

    entries: dict[str, PortCorrelation]

    def __post_init__(self):
        expected = {x + y for x in PORTS for y in PORTS}
        if set(self.entries) != expected:
            raise ValueError(f"g-matrix needs keys {sorted(expected)}")

    def __getitem__(self, key: str) -> PortCorrelation:
        return self.entries[key]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries.values())


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    statistics: str
    spin: str
    epsilon: float
    seed: int
    n_samples: int
    g: GMatrix
    passed: bool
    prng_id: str
    classified_symmetry: str


def beamsplitter_unitary() -> np.ndarray:
    """50/50 beam splitter in the [R, L] basis: rotation by pi/4."""
    return np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


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


def spin_state(variant: str) -> BipartiteState:
    """Spin-1/2 bi-signal states on (C^2_space (x) C^2_int) per component.

    sb5  = (|RL> - |LR>)/sqrt2 (x) (|+-> - |-+>)/sqrt2: both factors
           antisymmetric, overall coefficient matrix symmetric (bosonic).
    sb5k = (|RL> + |LR>)/sqrt2 (x) (|+-> - |-+>)/sqrt2: antisymmetric
           overall (fermionic).
    """
    if variant == "sb5":
        space_sign = -1.0
    elif variant == "sb5k":
        space_sign = 1.0
    else:
        raise ValueError(f"variant must be 'sb5' or 'sb5k', got {variant!r}")
    c = 1.0 / np.sqrt(2.0)
    space = np.array([[0.0, c], [space_sign * c, 0.0]], dtype=complex)
    spin = np.array([[0.0, c], [-c, 0.0]], dtype=complex)
    # Component index = 2 * space + internal (space major): amplitude of
    # |x s> (x) |y t> is space[x, y] * spin[s, t].
    amp = np.einsum("xy,st->xsyt", space, spin).reshape(4, 4)
    return BipartiteState(amp)


def intensity_observable(port: str, layout: IndexLayout, side: int) -> QuadraticForm:
    """Projector onto one output port, summed over internal indices.

    Evaluating the form gives the port intensity
    sum_s |phi^s(port)|^2 of the chosen component.
    """
    if port not in PORT_INDEX:
        raise ValueError(f"port must be one of {PORTS}, got {port!r}")
    if layout.space_dim != len(PORTS):
        raise DimensionError(
            f"layout space_dim must be {len(PORTS)} for a two-port experiment"
        )
    proj = np.zeros((layout.space_dim, layout.space_dim), dtype=complex)
    k = PORT_INDEX[port]
    proj[k, k] = 1.0
    op = np.kron(proj, np.eye(layout.internal_dim, dtype=complex))
    return QuadraticForm(operator=op, side=side)


def _experiment_input(statistics: str, spin: str) -> tuple[BipartiteState, IndexLayout]:
    if spin == "0":
        return input_state(statistics), IndexLayout(space_dim=2, internal_dim=1)
    if spin == "half":
        variant = "sb5" if statistics == "boson" else "sb5k"
        return spin_state(variant), IndexLayout(space_dim=2, internal_dim=2)
    raise ValueError(f"spin must be '0' or 'half', got {spin!r}")


def run_beamsplitter(
    statistics: str,
    spin: str = "0",
    epsilon: float | str = "auto",
    seed: int = 0,
    n_samples: int = 200_000,
) -> ExperimentReport:
    """Full pipeline: input state -> beam splitter -> covariance ->
    analytic g-matrix and seeded Monte Carlo confirmation.

    epsilon="auto" resolves to epsilon_min + AUTO_EPSILON_MARGIN.  Every
    g entry is flagged as passing when |mc - analytic| <= SE_BAND
    standard errors.  The four port intensities are evaluated once per
    sample and reduced to their moments as they are drawn; each g entry
    pairs a side-1 column with a side-2 column.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need n_samples >= {MIN_SAMPLES}, got {n_samples}")
    psi_in, layout = _experiment_input(statistics, spin)
    symmetry = classify_symmetry(psi_in, tol=1e-10)

    u = np.kron(beamsplitter_unitary(), np.eye(layout.internal_dim, dtype=complex))
    channel = UnitaryChannel(u1=u, u2=u)
    psi_out = apply_to_state(channel, psi_in)

    if epsilon == "auto":
        eps = epsilon_min(psi_out) + AUTO_EPSILON_MARGIN
    else:
        eps = float(epsilon)
    cov = build_covariance(psi_out, eps)
    side1 = [intensity_observable(x, layout, side=1) for x in PORTS]
    side2 = [intensity_observable(y, layout, side=2) for y in PORTS]
    moments = form_moments(cov, seed=seed, count=n_samples, forms=side1 + side2)
    k = len(PORTS)

    entries: dict[str, PortCorrelation] = {}
    for i, x in enumerate(PORTS):
        for j, y in enumerate(PORTS):
            g_xy = analytic_cov(cov, side1[i], side2[j])
            est = moments.cov(i, k + j, analytic=g_xy)
            entries[x + y] = PortCorrelation(
                analytic=g_xy, estimate=est, passed=est.within(SE_BAND)
            )
    g = GMatrix(entries=entries)
    return ExperimentReport(
        experiment="beamsplitter",
        statistics=statistics,
        spin=spin,
        epsilon=eps,
        seed=int(seed),
        n_samples=int(n_samples),
        g=g,
        passed=g.passed,
        prng_id=PRNG_ID,
        classified_symmetry=symmetry.tag.value,
    )
