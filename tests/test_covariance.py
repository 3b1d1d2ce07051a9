"""Block covariance construction, background level, symmetry classes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcsft.errors import DimensionError, NotPositiveError
from pcsft.hilbert import matricize
from pcsft.covariance import (
    AUTO_EPSILON_MARGIN,
    BlockCovariance,
    SymmetryTag,
    build_covariance,
    classify_symmetry,
    epsilon_min,
    permutation_transform,
    phase_transform,
)
from conftest import bisect_epsilon_min, rand_state, schmidt_states

C = 1.0 / np.sqrt(2.0)
BELL_SINGLET = matricize(np.array([[0.0, C], [-C, 0.0]]))
BOSONIC = matricize(np.array([[0.0, C], [C, 0.0]]))
PRODUCT = matricize(np.array([[1.0, 0.0], [0.0, 0.0]]))


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
        with pytest.raises(NotPositiveError) as exc_info:
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


class TestPhaseTransform:
    def test_equal_phases_identity(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        out = phase_transform(cov, np.pi, np.pi)
        np.testing.assert_allclose(out.assembled(), cov.assembled(), atol=1e-15)

    def test_pi_shift_flips_off_diagonal_sign(self):
        cov = build_covariance(BOSONIC, 0.25)
        out = phase_transform(cov, np.pi, 0.0)
        np.testing.assert_allclose(out.d12, -cov.d12, atol=1e-12)
        np.testing.assert_allclose(out.d11, cov.d11)
        np.testing.assert_allclose(out.d22, cov.d22)

    def test_full_turn_is_identity(self):
        cov = build_covariance(BOSONIC, 0.25)
        out = phase_transform(cov, 2.0 * np.pi, 0.0)
        np.testing.assert_allclose(out.assembled(), cov.assembled(), atol=1e-12)

    def test_diagonal_blocks_invariant_for_any_phase(self):
        rng = np.random.default_rng(25)
        cov = build_covariance(rand_state(rng, 3, 3), 0.3)
        for _ in range(20):
            gamma = rng.uniform(0, 2 * np.pi, size=2)
            out = phase_transform(cov, *gamma)
            np.testing.assert_allclose(out.d11, cov.d11)
            np.testing.assert_allclose(out.d22, cov.d22)
            assert out.epsilon == cov.epsilon


ANGLES = st.floats(-2.0 * np.pi, 2.0 * np.pi)
MARGINS = st.floats(0.0, 1.0)


def assert_same_covariance(out, expected):
    np.testing.assert_allclose(out.assembled(), expected.assembled(), rtol=0, atol=1e-12)
    assert out.epsilon == expected.epsilon


class TestTransformProperties:
    """A transform of a built covariance is the covariance built from the
    correspondingly transformed state, for square states of any Schmidt
    spectrum and any admissible background level."""

    @pytest.mark.parametrize("variant, sign", [("sigma_star", 1), ("sigma_star_minus", -1)])
    @settings(max_examples=100, deadline=None)
    @given(state=schmidt_states(square=True), margin=MARGINS)
    def test_permutation_transposes_the_state(self, variant, sign, state, margin):
        eps = epsilon_min(state) + margin
        out = permutation_transform(build_covariance(state, eps), variant)
        expected = build_covariance(matricize(sign * state.amplitudes.T), eps)
        assert_same_covariance(out, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        state=schmidt_states(square=True), margin=MARGINS, g1=ANGLES, g2=ANGLES
    )
    def test_phase_multiplies_the_state(self, state, margin, g1, g2):
        eps = epsilon_min(state) + margin
        out = phase_transform(build_covariance(state, eps), g1, g2)
        phased = np.exp(1j * (g1 - g2)) * state.amplitudes
        expected = build_covariance(matricize(phased), eps)
        assert_same_covariance(out, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        state=schmidt_states(square=True),
        margin=MARGINS,
        angles=st.lists(ANGLES, min_size=4, max_size=4),
    )
    def test_phases_compose_by_adding_angles(self, state, margin, angles):
        a1, a2, b1, b2 = angles
        cov = build_covariance(state, epsilon_min(state) + margin)
        twice = phase_transform(phase_transform(cov, a1, a2), b1, b2)
        assert_same_covariance(twice, phase_transform(cov, a1 + b1, a2 + b2))


class TestPermutationTransform:
    def test_bosonic_invariant_under_sigma_star(self):
        cov = build_covariance(BOSONIC, 0.25)
        out = permutation_transform(cov, "sigma_star")
        np.testing.assert_allclose(out.assembled(), cov.assembled(), atol=1e-12)

    def test_fermionic_flips_off_diagonals(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        out = permutation_transform(cov, "sigma_star")
        np.testing.assert_allclose(out.d12, -cov.d12, atol=1e-12)
        np.testing.assert_allclose(out.d21, -cov.d21, atol=1e-12)
        np.testing.assert_allclose(out.d11, cov.d11, atol=1e-12)
        np.testing.assert_allclose(out.d22, cov.d22, atol=1e-12)

    def test_fermionic_invariant_under_sigma_star_minus(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        out = permutation_transform(cov, "sigma_star_minus")
        np.testing.assert_allclose(out.assembled(), cov.assembled(), atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(26)
        cov = build_covariance(rand_state(rng, 3, 3), 0.3)
        twice = permutation_transform(permutation_transform(cov, "sigma_star"), "sigma_star")
        np.testing.assert_allclose(twice.assembled(), cov.assembled(), atol=1e-12)

    def test_diagonal_blocks_swap_conjugated(self):
        rng = np.random.default_rng(27)
        cov = build_covariance(rand_state(rng, 3, 3), 0.3)
        out = permutation_transform(cov, "sigma_star")
        np.testing.assert_allclose(out.d11, np.conj(cov.d22))
        np.testing.assert_allclose(out.d22, np.conj(cov.d11))
        np.testing.assert_allclose(out.d12, cov.d12.T)

    def test_rectangular_rejected(self):
        rng = np.random.default_rng(28)
        cov = build_covariance(rand_state(rng, 2, 3), 0.3)
        with pytest.raises(DimensionError):
            permutation_transform(cov, "sigma_star")


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
                shifted = matricize(np.exp(1j * theta) * state.amplitudes)
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
        # Near-anyonic input: symmetric magnitude pattern with an explicit
        # relative phase between transposed entries.  Exact solutions only
        # exist for theta in {0, pi}; feed theta = pi and a tiny symmetric
        # perturbation so the bosonic/fermionic gates cannot fire first.
        a = np.array([[0.0, C], [-C, 0.0]], dtype=complex)
        a[0, 1] *= np.exp(1j * 1e-8)
        state = matricize(a, renormalize=True)
        sym = classify_symmetry(state, tol=1e-6)
        assert sym.tag in (SymmetryTag.FERMIONIC, SymmetryTag.ANYONIC)


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
