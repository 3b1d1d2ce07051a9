"""Classical channels for factorized unitaries and Schrödinger propagation."""

import numpy as np
import pytest
import scipy.linalg

from pcsft import (
    BlockCovariance,
    DimensionError,
    Hamiltonian,
    QuadraticForm,
    UnitaryChannel,
    analytic_cov,
    apply_to_covariance,
    apply_to_state,
    beamsplitter_unitary,
    build_covariance,
    epsilon_min,
    evolution_channel,
    factor_covariance,
    input_state,
    matricize,
    propagate,
    quantum_average_tensor,
)
from conftest import (
    draw_samples,
    rand_complex,
    rand_selfadjoint,
    rand_state,
    rand_unitary,
    states_equal_up_to_phase,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def rand_channel(rng, d1, d2):
    return UnitaryChannel(u1=rand_unitary(rng, d1), u2=rand_unitary(rng, d2))


def act_on_samples(ch, joint, d1):
    """The channel's action (U1 phi1, conj(U2) phi2) on every row of the
    joint samples."""
    return np.hstack([joint[:, :d1] @ ch.u1.T, joint[:, d1:] @ ch.u2.conj().T])


class TestChannelValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryChannel(u1=np.array([[1.0, 1.0], [0.0, 1.0]]), u2=np.eye(2))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            UnitaryChannel(u1=np.ones((2, 3)), u2=np.eye(2))


class TestApplyToSample:
    def test_identity_channel(self):
        ch = UnitaryChannel(u1=np.eye(2), u2=np.eye(3))
        joint = np.array([[1.0, 2j, 0.5, 0, 1j]])
        np.testing.assert_array_equal(act_on_samples(ch, joint, 2), joint)
        cov = build_covariance(rand_state(np.random.default_rng(79), 2, 3), 0.5)
        np.testing.assert_allclose(
            apply_to_covariance(ch, cov).assembled(), cov.assembled(), atol=1e-15
        )

    def test_norm_preserved(self):
        # Per sample, and in the mean: E|phi_j|^2 is the trace of D_jj.
        rng = np.random.default_rng(80)
        ch = rand_channel(rng, 3, 2)
        joint = rand_complex(rng, 20, 5)
        out = act_on_samples(ch, joint, 3)
        for side in (slice(0, 3), slice(3, 5)):
            np.testing.assert_allclose(
                np.linalg.norm(out[:, side], axis=1),
                np.linalg.norm(joint[:, side], axis=1),
                atol=1e-10,
            )
        cov = build_covariance(rand_state(rng, 3, 2), 0.3)
        moved = apply_to_covariance(ch, cov)
        for before, after in ((cov.d11, moved.d11), (cov.d22, moved.d22)):
            assert np.trace(after).real == pytest.approx(np.trace(before).real, abs=1e-12)

    def test_empirical_covariance_tracks_transform(self):
        # The per-sample channel action must reproduce apply_to_covariance
        # in the sample moments, including for complex channels.
        rng = np.random.default_rng(81)
        state = rand_state(rng, 2, 2)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        ch = rand_channel(rng, 2, 2)
        n = 200_000
        joint = act_on_samples(ch, draw_samples(cov, seed=82, count=n), 2)
        emp = (joint.conj().T @ joint / n).T
        expected = apply_to_covariance(ch, cov).assembled()
        d = np.diagonal(expected).real
        se = np.sqrt(np.outer(d, d) / n)
        assert np.all(np.abs(emp - expected) <= 5.0 * se)

    def test_batch_and_sample_paths_agree(self):
        # Row k of the output is W z_k with W = U1 (+) conj(U2), and the
        # samples w F^T / sqrt(2) map to w (W F)^T / sqrt(2), whose
        # covariance (W F)(W F)† is exactly apply_to_covariance's.
        rng = np.random.default_rng(83)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        ch = rand_channel(rng, 2, 3)
        joint = draw_samples(cov, seed=84, count=16)
        out = act_on_samples(ch, joint, 2)
        w = scipy.linalg.block_diag(ch.u1, np.conj(ch.u2))
        for k in range(len(joint)):
            np.testing.assert_allclose(out[k], w @ joint[k], atol=1e-12)
        wf = w @ factor_covariance(cov)
        np.testing.assert_allclose(
            wf @ wf.conj().T, apply_to_covariance(ch, cov).assembled(), atol=1e-12
        )


class TestApplyToState:
    def test_identity(self):
        rng = np.random.default_rng(85)
        state = rand_state(rng, 2, 2)
        ch = UnitaryChannel(u1=np.eye(2), u2=np.eye(2))
        np.testing.assert_allclose(
            apply_to_state(ch, state).amplitudes, state.amplitudes
        )

    def test_beamsplitter_on_symmetric_input(self):
        u = beamsplitter_unitary()
        ch = UnitaryChannel(u1=u, u2=u)
        out = apply_to_state(ch, input_state("boson"))
        c = 1.0 / np.sqrt(2.0)
        target = np.array([[c, 0.0], [0.0, -c]], dtype=complex)  # (|RR> - |LL>)/sqrt2
        assert states_equal_up_to_phase(out.amplitudes, target, tol=1e-12)

    def test_beamsplitter_on_antisymmetric_input(self):
        u = beamsplitter_unitary()
        ch = UnitaryChannel(u1=u, u2=u)
        state = input_state("fermion")
        out = apply_to_state(ch, state)
        assert states_equal_up_to_phase(out.amplitudes, state.amplitudes, tol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(86)
        state = rand_state(rng, 3, 4)
        ch = rand_channel(rng, 3, 4)
        assert apply_to_state(ch, state).norm() == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_transform_matches_tensor_action(self):
        # Guards the transpose convention: U1 Ψ̂ U2ᵀ must equal kron(U1, U2)
        # acting on the row-major flattened state vector.
        rng = np.random.default_rng(20240817)
        state = rand_state(rng, 3, 4)
        ch = rand_channel(rng, 3, 4)
        lhs = apply_to_state(ch, state).amplitudes.reshape(-1)
        rhs = np.kron(ch.u1, ch.u2) @ state.amplitudes.reshape(-1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestApplyToCovariance:
    def test_identity(self):
        rng = np.random.default_rng(87)
        cov = build_covariance(rand_state(rng, 2, 2), 0.3)
        ch = UnitaryChannel(u1=np.eye(2), u2=np.eye(2))
        np.testing.assert_allclose(
            apply_to_covariance(ch, cov).assembled(), cov.assembled()
        )

    def test_state_path_equals_covariance_path(self):
        rng = np.random.default_rng(88)
        for _ in range(200):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            state = rand_state(rng, d1, d2)
            eps = epsilon_min(state) + 0.05
            ch = rand_channel(rng, d1, d2)
            via_cov = apply_to_covariance(ch, build_covariance(state, eps))
            via_state = build_covariance(apply_to_state(ch, state), eps)
            assert (
                np.max(np.abs(via_cov.assembled() - via_state.assembled())) <= 1e-10
            )

    def test_psd_preserved(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            state = rand_state(rng, 3, 3)
            cov = build_covariance(state, epsilon_min(state))
            out = apply_to_covariance(ch := rand_channel(rng, 3, 3), cov)
            assert np.linalg.eigvalsh(out.assembled()).min() >= -1e-10
            assert out.epsilon == cov.epsilon

    def test_correlations_track_transformed_state(self):
        rng = np.random.default_rng(90)
        for _ in range(50):
            state = rand_state(rng, 2, 3)
            cov = build_covariance(state, epsilon_min(state) + 0.05)
            ch = rand_channel(rng, 2, 3)
            a1 = rand_selfadjoint(rng, 2)
            a2 = rand_selfadjoint(rng, 3)
            value = analytic_cov(
                apply_to_covariance(ch, cov),
                QuadraticForm(operator=a1, side=1),
                QuadraticForm(operator=a2, side=2),
            )
            expected = quantum_average_tensor(apply_to_state(ch, state), a1, a2)
            assert abs(value - expected) <= 1e-10


class TestPropagate:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(91)
        state = rand_state(rng, 2, 2)
        h = Hamiltonian(h1=rand_selfadjoint(rng, 2), h2=rand_selfadjoint(rng, 2))
        out = propagate(h, 0.0, state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_exponential_is_unitary(self):
        rng = np.random.default_rng(92)
        for _ in range(30):
            h = Hamiltonian(h1=rand_selfadjoint(rng, 3), h2=rand_selfadjoint(rng, 4))
            t = float(rng.uniform(-10, 10))
            ch = evolution_channel(h, t)
            for u in (ch.u1, ch.u2):
                defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
                assert defect <= 1e-10

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(93)
        h = Hamiltonian(h1=rand_selfadjoint(rng, 3), h2=rand_selfadjoint(rng, 2))
        t = 0.7
        ch = evolution_channel(h, t)
        np.testing.assert_allclose(
            ch.u1, scipy.linalg.expm(-1j * t * h.h1), atol=1e-12
        )
        np.testing.assert_allclose(
            ch.u2, scipy.linalg.expm(-1j * t * h.h2), atol=1e-12
        )

    def test_hbar_scaling(self):
        rng = np.random.default_rng(94)
        h1 = rand_selfadjoint(rng, 2)
        h2 = rand_selfadjoint(rng, 2)
        fast = evolution_channel(Hamiltonian(h1=h1, h2=h2, hbar=1.0), 1.0)
        slow = evolution_channel(Hamiltonian(h1=h1, h2=h2, hbar=2.0), 2.0)
        np.testing.assert_allclose(fast.u1, slow.u1, atol=1e-12)

    def test_group_law(self):
        rng = np.random.default_rng(95)
        state = rand_state(rng, 3, 2)
        h = Hamiltonian(h1=rand_selfadjoint(rng, 3), h2=rand_selfadjoint(rng, 2))
        t1, t2 = 0.3, 1.1
        stepped = propagate(h, t2, propagate(h, t1, state))
        direct = propagate(h, t1 + t2, state)
        assert np.max(np.abs(stepped.amplitudes - direct.amplitudes)) <= 1e-10

    def test_singlet_invariant_under_matched_rotations(self):
        c = 1.0 / np.sqrt(2.0)
        singlet = matricize(np.array([[0.0, c], [-c, 0.0]]))
        h = Hamiltonian(h1=SIGMA_Z, h2=SIGMA_Z)
        proj_r = np.diag([1.0, 0.0]).astype(complex)
        proj_l = np.diag([0.0, 1.0]).astype(complex)
        f1 = QuadraticForm(operator=proj_r, side=1)
        f2 = QuadraticForm(operator=proj_l, side=2)
        base_cov = analytic_cov(build_covariance(singlet, 0.25), f1, f2)
        for t in (0.0, 0.4, 1.7, 6.0):
            out = propagate(h, t, singlet)
            assert states_equal_up_to_phase(
                out.amplitudes, singlet.amplitudes, tol=1e-10
            )
            value = analytic_cov(build_covariance(out, 0.25), f1, f2)
            assert value == pytest.approx(base_cov, abs=1e-12)

    def test_covariance_propagation(self):
        rng = np.random.default_rng(96)
        state = rand_state(rng, 2, 2)
        eps = epsilon_min(state) + 0.1
        h = Hamiltonian(h1=rand_selfadjoint(rng, 2), h2=rand_selfadjoint(rng, 2))
        t = 0.9
        via_cov = propagate(h, t, build_covariance(state, eps))
        via_state = build_covariance(propagate(h, t, state), eps)
        assert (
            np.max(np.abs(via_cov.assembled() - via_state.assembled())) <= 1e-10
        )

    def test_rejects_unknown_type(self):
        rng = np.random.default_rng(97)
        h = Hamiltonian(h1=rand_selfadjoint(rng, 2), h2=rand_selfadjoint(rng, 2))
        with pytest.raises(TypeError):
            propagate(h, 1.0, np.eye(2))
