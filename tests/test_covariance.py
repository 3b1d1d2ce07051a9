"""Block covariance construction, background level, symmetry classes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcsft.errors import DimensionError, NotPositiveError
from pcsft.hilbert import BipartiteState
from pcsft.covariance import (
    AUTO_EPSILON_MARGIN,
    BlockCovariance,
    SymmetryTag,
    build_covariance,
    classify_symmetry,
    epsilon_min,
)
from conftest import bisect_epsilon_min, rand_complex, rand_state, schmidt_states

C = 1.0 / np.sqrt(2.0)
BELL_SINGLET = BipartiteState(np.array([[0.0, C], [-C, 0.0]]))
BOSONIC = BipartiteState(np.array([[0.0, C], [C, 0.0]]))
PRODUCT = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]]))
# The singlet with a relative phase of 1e-8 between its transposed entries.
_TWISTED = np.array([[0.0, C * np.exp(1e-8j)], [-C, 0.0]])
NEAR_ANYONIC = BipartiteState(_TWISTED / np.linalg.norm(_TWISTED))


@st.composite
def near_symmetric_states(draw, max_dim: int = 5):
    """Square states: random, near-symmetric or near-antisymmetric (a
    (anti)symmetric matrix plus a perturbation of random size), and the
    near-anyonic fixture."""
    kind = draw(st.sampled_from(["random", "symmetric", "antisymmetric", "near-anyonic"]))
    if kind == "near-anyonic":
        return NEAR_ANYONIC
    if kind == "random":
        return draw(schmidt_states(max_dim=max_dim, square=True))
    d = draw(st.integers(2, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rand_complex(rng, d, d)
    sign = 1.0 if kind == "symmetric" else -1.0
    psi = g + sign * g.T + 10.0 ** draw(st.floats(-15.0, 0.0)) * rand_complex(rng, d, d)
    return BipartiteState(psi / np.linalg.norm(psi))


class TestBuildCovariance:
    def test_product_state_assembled(self):
        cov = build_covariance(PRODUCT, 0.0)
        expected = np.array(
            [
                [1, 0, 1, 0],
                [0, 0, 0, 0],
                [1, 0, 1, 0],
                [0, 0, 0, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(cov.assembled(), expected, atol=1e-15)
        assert np.linalg.eigvalsh(cov.assembled()).min() >= -1e-10

    def test_bell_rejected_at_zero(self):
        # The error names the one field that can cause it for a valid state.
        match = r"^field 'epsilon': epsilon = 0\.0 is below"
        with pytest.raises(NotPositiveError, match=match) as exc_info:
            build_covariance(BELL_SINGLET, 0.0)
        carried = exc_info.value.epsilon_min
        assert carried == pytest.approx((np.sqrt(2) - 1) / 2, abs=1e-12)

    def test_auto_adds_the_margin_to_epsilon_min(self):
        cov = build_covariance(BELL_SINGLET, "auto")
        assert cov.epsilon == epsilon_min(BELL_SINGLET) + AUTO_EPSILON_MARGIN

    def test_bell_psd_at_quarter(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        assert np.linalg.eigvalsh(cov.assembled()).min() >= -1e-10

    def test_blocks_match_construction(self):
        rng = np.random.default_rng(20)
        state = rand_state(rng, 2, 3)
        eps = epsilon_min(state) + 0.1
        cov = build_covariance(state, eps)
        psi = state.amplitudes
        np.testing.assert_allclose(cov.d12, psi)
        np.testing.assert_allclose(cov.d21, psi.conj().T)
        np.testing.assert_allclose(cov.d11, psi @ psi.conj().T + eps * np.eye(2))
        np.testing.assert_allclose(cov.d22, psi.conj().T @ psi + eps * np.eye(3))

    def test_psd_for_random_states_at_admissible_eps(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            d1 = int(rng.integers(2, 7))
            d2 = int(rng.integers(2, 7))
            state = rand_state(rng, d1, d2)
            eps = epsilon_min(state) + float(rng.uniform(0.0, 0.5))
            cov = build_covariance(state, eps)
            assert np.linalg.eigvalsh(cov.assembled()).min() >= -1e-10

    def test_negative_epsilon_rejected(self):
        with pytest.raises(NotPositiveError):
            build_covariance(PRODUCT, -0.1)


class TestAssembledOnce:
    """D is assembled once, on construction, with the resolved epsilon:
    assembled() returns that read-only array and D11, D21, D22 are views
    of its blocks, bit-equal to their defining expressions."""

    @settings(max_examples=100, deadline=None)
    @given(state=schmidt_states(max_dim=5), delta=st.floats(-1e-12, 10.0))
    def test_blocks_are_views_of_one_read_only_array(self, state, delta):
        cov = build_covariance(state, epsilon_min(state) + delta)
        d = cov.assembled()
        assert d is cov.assembled()
        assert not d.flags.writeable
        psi, eps, (d1, d2) = state.amplitudes, cov.epsilon, state.amplitudes.shape
        for block, expected in (
            (cov.d11, psi @ psi.conj().T + eps * np.eye(d1)),
            (cov.d21, psi.conj().T),
            (cov.d22, psi.conj().T @ psi + eps * np.eye(d2)),
        ):
            assert np.shares_memory(block, d)
            assert not block.flags.writeable
            assert np.array_equal(block, expected)


class TestEpsilonMin:
    def test_product_state_is_zero(self):
        assert epsilon_min(PRODUCT) == pytest.approx(0.0, abs=1e-12)
        assert bisect_epsilon_min(PRODUCT.amplitudes) == pytest.approx(0.0, abs=1e-9)

    def test_bell_closed_form(self):
        expected = (np.sqrt(2) - 1) / 2
        assert epsilon_min(BELL_SINGLET) == pytest.approx(expected, abs=1e-12)
        assert bisect_epsilon_min(BELL_SINGLET.amplitudes) == pytest.approx(
            expected, abs=1e-9
        )

    def test_never_exceeds_quarter(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            state = rand_state(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            assert 0.0 <= epsilon_min(state) <= 0.25 + 1e-12

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            state = rand_state(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            oracle = bisect_epsilon_min(state.amplitudes)
            assert epsilon_min(state) == pytest.approx(oracle, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(state=schmidt_states(max_dim=5))
    def test_equals_bisection_oracle_on_any_spectrum(self, state):
        # The oracle bisects on the smallest eigenvalue of the assembled
        # covariance to 1e-10; epsilon_min reads the singular values.
        oracle = bisect_epsilon_min(state.amplitudes)
        assert epsilon_min(state) == pytest.approx(oracle, abs=1e-9)

    def test_boundary_build_is_psd(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            state = rand_state(rng, 3, 3)
            cov = build_covariance(state, epsilon_min(state))
            assert np.linalg.eigvalsh(cov.assembled()).min() >= -1e-10


class TestClassifySymmetry:
    def test_symmetric_state_is_bosonic(self):
        sym = classify_symmetry(BOSONIC, tol=1e-12)
        assert sym.tag is SymmetryTag.BOSONIC
        assert sym.residual <= 1e-12

    def test_antisymmetric_state_is_fermionic(self):
        sym = classify_symmetry(BELL_SINGLET, tol=1e-12)
        assert sym.tag is SymmetryTag.FERMIONIC
        assert sym.residual <= 1e-12

    def test_diagonal_state_is_bosonic(self):
        sym = classify_symmetry(PRODUCT, tol=1e-12)
        assert sym.tag is SymmetryTag.BOSONIC

    def test_phase_shift_preserves_tag(self):
        rng = np.random.default_rng(29)
        for state, tag in [(BOSONIC, SymmetryTag.BOSONIC), (BELL_SINGLET, SymmetryTag.FERMIONIC)]:
            for _ in range(10):
                theta = float(rng.uniform(0, 2 * np.pi))
                shifted = BipartiteState(np.exp(1j * theta) * state.amplitudes)
                assert classify_symmetry(shifted, tol=1e-10).tag is tag

    def test_generic_state_is_none(self):
        rng = np.random.default_rng(30)
        sym = classify_symmetry(rand_state(rng, 3, 3), tol=1e-10)
        assert sym.tag is SymmetryTag.NONE
        assert sym.residual > 1e-10

    def test_rectangular_rejected(self):
        rng = np.random.default_rng(31)
        with pytest.raises(DimensionError):
            classify_symmetry(rand_state(rng, 2, 3), tol=1e-10)

    def test_anyonic_branch_recovers_theta(self):
        # A near-anyonic input, the singlet with a relative phase of 1e-8
        # between transposed entries, is fermionic: psi = e^{i theta} psiᵀ
        # holds only for theta in {0, pi}, so no anyonic class exists.
        sym = classify_symmetry(NEAR_ANYONIC, tol=1e-6)
        assert sym.tag is SymmetryTag.FERMIONIC
        assert sym.residual <= 1e-6

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError, match="tol must be positive, got 0.0"):
            classify_symmetry(BOSONIC, tol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(state=near_symmetric_states(), tol=st.sampled_from([1e-12, 1e-10, 1e-6]))
    def test_only_bosonic_fermionic_or_none(self, state, tol):
        # Tr(psi conj(psi)) = Σ_ij psi_ij conj(psi_ji) is real, so the
        # only phase relations psi = e^{i theta} psiᵀ are theta = 0 and pi,
        # and a none state reports the defect of the nearer of the two.
        psi = state.amplitudes
        overlap = np.sum(psi * np.conj(psi.T))
        assert abs(overlap.imag) <= 1e-14
        sym = classify_symmetry(state, tol=tol)
        assert sym.tag in (SymmetryTag.BOSONIC, SymmetryTag.FERMIONIC, SymmetryTag.NONE)
        if sym.tag is not SymmetryTag.NONE:
            return
        defects = [float(np.max(np.abs(psi - sign * psi.T))) for sign in (1, -1)]
        distances = [np.linalg.norm(psi - sign * psi.T) for sign in (1, -1)]
        if abs(distances[0] - distances[1]) <= 1e-12:  # a tie within rounding
            assert sym.residual in defects
        else:
            assert sym.residual == defects[int(np.argmin(distances))]


class TestBlockCovarianceValidation:
    """The constructor's criterion is exact: the assembled covariance is
    PSD if and only if epsilon >= epsilon_min, up to 1e-12."""

    @settings(max_examples=100, deadline=None)
    @given(state=schmidt_states(max_dim=5), delta=st.floats(0.0, 10.0))
    def test_accepts_from_epsilon_min_up(self, state, delta):
        cov = BlockCovariance(d12=state.amplitudes, epsilon=epsilon_min(state) + delta)
        assert np.linalg.eigvalsh(cov.assembled()).min() >= -1e-10

    @settings(max_examples=100, deadline=None)
    @given(state=schmidt_states(max_dim=5), delta=st.floats(1e-9, 1.0))
    def test_rejects_below_epsilon_min(self, state, delta):
        eps_min = epsilon_min(state)
        with pytest.raises(NotPositiveError) as exc_info:
            BlockCovariance(d12=state.amplitudes, epsilon=eps_min - delta)
        assert exc_info.value.epsilon_min == eps_min

    def test_rejects_indefinite_assembly(self):
        # Ψ̂ = I/2 at epsilon = 0: eigenvalues s² ± s are 3/4 and -1/4, so
        # epsilon_min = s (1 - s) = 1/4.
        psi = np.eye(2) / 2
        assembled = np.block([[psi @ psi, psi], [psi, psi @ psi]])
        assert np.linalg.eigvalsh(assembled).min() == pytest.approx(-0.25)
        with pytest.raises(NotPositiveError) as exc_info:
            BlockCovariance(d12=psi, epsilon=0.0)
        assert exc_info.value.epsilon_min == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "eps, error",
        [(np.nan, ValueError), (np.inf, ValueError), (-np.inf, NotPositiveError)],
    )
    def test_rejects_non_finite_epsilon(self, eps, error):
        with pytest.raises(error, match="epsilon"):
            build_covariance(BELL_SINGLET, eps)

    @pytest.mark.parametrize(
        "d12",
        [[[1e200]], [[1e154, 1e154], [1e154, 1e154]], [[1e308, 0.0]]],
        ids=["1e200", "2e154", "1e308"],
    )
    def test_rejects_d12_whose_square_overflows(self, d12):
        # D11 = Ψ̂Ψ̂† + εI could not be represented: a ValueError naming
        # D12, from the validating SVD, with no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="D12"):
                BlockCovariance(d12=d12, epsilon=0.0)

    def test_accepts_d12_just_below_the_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = BlockCovariance(d12=[[1e154]], epsilon=0.0)
            assert np.isfinite(cov.d11).all()
