"""Classical Gaussian bi-signals whose covariance encodes a bipartite
quantum state, reproducing quantum correlations as covariances of
quadratic forms; includes seeded Monte Carlo estimators and turn-key
beam-splitter bunching / anti-bunching experiments."""

__version__ = "0.1.0"

from .errors import (
    DimensionError,
    InteractionError,
    NormalizationError,
    NotPositiveError,
    PcsftError,
    RealityError,
    SchemaError,
    SelfAdjointnessError,
)
from .hilbert import (
    BipartiteState,
    adjoint,
    as_real,
    conj_operator,
    marginal_average,
    matricize,
    quantum_average_tensor,
    quantum_average_trace,
    reduced_density,
    require_selfadjoint,
)
from .covariance import (
    BlockCovariance,
    PhasePair,
    SymmetryClass,
    SymmetryTag,
    build_covariance,
    classify_symmetry,
    dispersion,
    epsilon_min,
    permutation_transform,
    phase_transform,
    scale_field,
)
from .sampler import (
    CHUNK_SIZE,
    PRNG_ID,
    factor_covariance,
)
from .quadratic import (
    Estimate,
    Moments,
    QuadraticForm,
    analytic_cov,
    analytic_mean,
    form_moments,
    renormalized_mean,
)
from .channels import (
    Hamiltonian,
    UnitaryChannel,
    apply_to_covariance,
    apply_to_state,
    evolution_channel,
    propagate,
)
from .experiments import (
    ExperimentReport,
    GMatrix,
    IndexLayout,
    PortCorrelation,
    beamsplitter_unitary,
    input_state,
    intensity_observable,
    run_beamsplitter,
    spin_state,
)

__all__ = [
    "__version__",
    # errors
    "PcsftError",
    "DimensionError",
    "NormalizationError",
    "SelfAdjointnessError",
    "RealityError",
    "NotPositiveError",
    "InteractionError",
    "SchemaError",
    # hilbert
    "BipartiteState",
    "matricize",
    "conj_operator",
    "adjoint",
    "reduced_density",
    "quantum_average_tensor",
    "quantum_average_trace",
    "marginal_average",
    "as_real",
    "require_selfadjoint",
    # covariance
    "BlockCovariance",
    "PhasePair",
    "SymmetryClass",
    "SymmetryTag",
    "build_covariance",
    "epsilon_min",
    "phase_transform",
    "permutation_transform",
    "classify_symmetry",
    "dispersion",
    "scale_field",
    # sampler
    "PRNG_ID",
    "CHUNK_SIZE",
    "factor_covariance",
    # quadratic
    "QuadraticForm",
    "Estimate",
    "analytic_mean",
    "renormalized_mean",
    "analytic_cov",
    "Moments",
    "form_moments",
    # channels
    "UnitaryChannel",
    "Hamiltonian",
    "apply_to_state",
    "apply_to_covariance",
    "evolution_channel",
    "propagate",
    # experiments
    "IndexLayout",
    "PortCorrelation",
    "GMatrix",
    "ExperimentReport",
    "beamsplitter_unitary",
    "input_state",
    "spin_state",
    "intensity_observable",
    "run_beamsplitter",
]
