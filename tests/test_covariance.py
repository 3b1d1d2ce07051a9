"""Block covariance construction, background level, symmetry classes."""

import numpy as np
import pytest

from pcsft import (
    BlockCovariance,
    DimensionError,
    NotPositiveError,
    PhasePair,
    SymmetryTag,
    build_covariance,
    classify_symmetry,
    dispersion,
    epsilon_min,
    matricize,
    permutation_transform,
    phase_transform,
    scale_field,
)
from conftest import bisect_epsilon_min, rand_state

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

    def test_bell_psd_at_quarter(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        assert np.linalg.eigvalsh(cov.assembled()).min() >= -1e-10

    def test_spectrum_is_the_assembled_eigendecomposition(self):
        # At epsilon_min the smallest eigenvalue sits at zero, up to rounding.
        rng = np.random.default_rng(21)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state))
        evals, evecs = cov.spectrum
        np.testing.assert_allclose(
            (evecs * evals) @ evecs.conj().T, cov.assembled(), atol=1e-12
        )
        assert evals.min() >= -1e-10
        assert not evals.flags.writeable and not evecs.flags.writeable

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

    def test_boundary_build_is_psd(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            state = rand_state(rng, 3, 3)
            cov = build_covariance(state, epsilon_min(state))
            assert np.linalg.eigvalsh(cov.assembled()).min() >= -1e-10


class TestPhaseTransform:
    def test_equal_phases_identity(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        out = phase_transform(cov, PhasePair(np.pi, np.pi))
        np.testing.assert_allclose(out.assembled(), cov.assembled(), atol=1e-15)

    def test_pi_shift_flips_off_diagonal_sign(self):
        cov = build_covariance(BOSONIC, 0.25)
        out = phase_transform(cov, PhasePair(np.pi, 0.0))
        np.testing.assert_allclose(out.d12, -cov.d12, atol=1e-12)
        np.testing.assert_allclose(out.d11, cov.d11)
        np.testing.assert_allclose(out.d22, cov.d22)

    def test_full_turn_is_identity(self):
        cov = build_covariance(BOSONIC, 0.25)
        out = phase_transform(cov, PhasePair(2.0 * np.pi, 0.0))
        np.testing.assert_allclose(out.assembled(), cov.assembled(), atol=1e-12)

    def test_diagonal_blocks_invariant_for_any_phase(self):
        rng = np.random.default_rng(25)
        cov = build_covariance(rand_state(rng, 3, 3), 0.3)
        for _ in range(20):
            gamma = PhasePair(*rng.uniform(0, 2 * np.pi, size=2))
            out = phase_transform(cov, gamma)
            np.testing.assert_allclose(out.d11, cov.d11)
            np.testing.assert_allclose(out.d22, cov.d22)
            assert out.epsilon == cov.epsilon


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


class TestDispersionAndScaling:
    def test_product_state_dispersion(self):
        assert dispersion(build_covariance(PRODUCT, 0.0)) == pytest.approx(2.0)

    def test_bell_with_background(self):
        assert dispersion(build_covariance(BELL_SINGLET, 0.25)) == pytest.approx(3.0)

    def test_linear_in_epsilon(self):
        rng = np.random.default_rng(32)
        state = rand_state(rng, 2, 3)
        base = epsilon_min(state)
        d0 = dispersion(build_covariance(state, base))
        d1 = dispersion(build_covariance(state, base + 0.1))
        assert d1 - d0 == pytest.approx(0.1 * 5, abs=1e-12)

    def test_scale_identity(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        out = scale_field(cov, 1.0)
        np.testing.assert_allclose(out.assembled(), cov.assembled())

    def test_scale_normalizes_dispersion(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        out = scale_field(cov, 1.0 / np.sqrt(dispersion(cov)))
        assert dispersion(out) == pytest.approx(1.0, abs=1e-12)
        assert out.epsilon == pytest.approx(0.25 / 3.0)

    def test_scale_rejects_nonpositive(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        with pytest.raises(ValueError):
            scale_field(cov, 0.0)


class TestBlockCovarianceValidation:
    def test_rejects_non_hermitian_diagonal(self):
        with pytest.raises(NotPositiveError):
            BlockCovariance(
                d11=np.array([[0.0, 1.0], [0.0, 0.0]]),
                d12=np.zeros((2, 2)),
                d21=np.zeros((2, 2)),
                d22=np.eye(2),
                epsilon=0.0,
            )

    def test_rejects_mismatched_d21(self):
        with pytest.raises(NotPositiveError):
            BlockCovariance(
                d11=np.eye(2),
                d12=np.array([[0.0, 1.0], [0.0, 0.0]]),
                d21=np.zeros((2, 2)),
                d22=np.eye(2),
                epsilon=0.0,
            )

    def test_rejects_indefinite_assembly(self):
        with pytest.raises(NotPositiveError):
            BlockCovariance(
                d11=0.1 * np.eye(2),
                d12=np.eye(2),
                d21=np.eye(2),
                d22=0.1 * np.eye(2),
                epsilon=0.0,
            )
