"""Quadratic-form observables: analytic statistics and MC estimators."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcsft
from pcsft.errors import DimensionError, SelfAdjointnessError
from pcsft.hilbert import BipartiteState, marginal_average, quantum_average_tensor
from pcsft.covariance import BlockCovariance, build_covariance, epsilon_min, factor_covariance
from pcsft.sampler import _BLOCK_ROWS, CHUNK_SIZE, _product_rows, _substream, draw_chunks
from pcsft.quadratic import (
    QuadraticForm,
    analytic_cov,
    Moments,
    _Workspace,
    _cov,
    _readout,
    _readout_covariance,
    form_moments,
    renormalized_mean,
)
from pcsft.channels import UnitaryChannel, apply_to_state
from pcsft.experiments import (
    PORTS,
    _experiment_input,
    beamsplitter_unitary,
    input_state,
    intensity_observable,
)
from conftest import (
    draw_samples,
    rand_complex,
    rand_selfadjoint,
    rand_state,
    rand_unitary,
    schmidt_states,
)


def weighted_sum(intensity, weights):
    """Reference weighting: the columns of ``intensity`` times their
    weights, added term by term in column order (zeros for no weight)."""
    terms = [intensity[:, t] * w for t, w in enumerate(weights)]
    return sum(terms[1:], start=terms[0]) if terms else np.zeros(len(intensity))


def _diagonal_values(phi, weights):
    """Reference for the intensity branch: <A phi_n, phi_n> for A = diag(weights)."""
    return weighted_sum(phi.real**2 + phi.imag**2, weights)


def _complex_values(phi, operator, conjugate):
    """The complex definition Re sum_k conj(psi_k) (psi @ A^T)_k, with
    psi = conj(phi) if ``conjugate`` else phi."""
    psi = np.conj(phi) if conjugate else phi
    return np.einsum("nk,nk->n", psi @ operator.T, np.conj(psi)).real

C = 1.0 / np.sqrt(2.0)
BELL_SINGLET = BipartiteState(np.array([[0.0, C], [-C, 0.0]]))
PROJ_R = np.diag([1.0, 0.0]).astype(complex)
PROJ_L = np.diag([0.0, 1.0]).astype(complex)


def bs_output(statistics: str):
    u = beamsplitter_unitary()
    return apply_to_state(UnitaryChannel(u1=u, u2=u), input_state(statistics))


class TestQuadraticForm:
    def test_rejects_non_selfadjoint(self):
        with pytest.raises(SelfAdjointnessError):
            QuadraticForm(operator=np.array([[0.0, 1.0], [0.0, 0.0]]), side=1)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            QuadraticForm(operator=PROJ_R, side=3)


def workspace_rows(forms, block, d1) -> np.ndarray:
    """The moment rows form_moments writes for the forms on a joint block
    (rows, d1 + d2): the forms' readout R applied to the block (the
    sampler folds it into its factor instead), then one workspace; the
    block is left intact."""
    readout, plans = _readout(forms, d1, np.shape(block)[1] - d1)
    return _Workspace(plans, len(block)).rows(np.asarray(block, dtype=complex) @ readout.T)


def record_block_values(monkeypatch) -> list:
    """Records the form values of every block a workspace evaluates, in
    the order evaluated, each a copy of its (k, rows) value rows."""
    import pcsft.quadratic as quadratic

    blocks, real_rows = [], quadratic._Workspace.rows

    def recording_rows(workspace, phi):
        rows = real_rows(workspace, phi)
        blocks.append(np.array(rows[1 : 1 + len(workspace._plans)]))
        return rows

    monkeypatch.setattr(quadratic._Workspace, "rows", recording_rows)
    return blocks


def block_values(form, block, d1) -> np.ndarray:
    """f_A on each row of a joint block (rows, d1 + d2), evaluated the way
    form_moments evaluates a sampler block; the block is left intact."""
    return workspace_rows([form], block, d1)[1].copy()


def evaluate(form, phi1, phi2) -> np.ndarray:
    """f_A on the single sample (phi1, phi2)."""
    phi1 = np.atleast_2d(phi1)
    block = np.hstack([phi1, np.atleast_2d(phi2)])
    return block_values(form, block, phi1.shape[1])


class TestEvalForm:
    def test_identity_on_basis_vector(self):
        form = QuadraticForm(operator=np.eye(2), side=1)
        assert evaluate(form, [1.0, 0.0], [0.0, 0.0]) == pytest.approx([1.0])

    def test_projector_reads_intensity(self):
        form = QuadraticForm(operator=PROJ_R, side=1)
        assert evaluate(form, [0.3 + 0.4j, 1.0], [0.0, 0.0]) == pytest.approx([0.25])

    def test_conjugate_operator_pairing(self):
        # f_Ā(phi) = f_A(conj phi): a side-2 form reads conj(phi2).
        rng = np.random.default_rng(60)
        for _ in range(30):
            a = rand_selfadjoint(rng, 3)
            phi = rand_complex(rng, 3)
            f_conj = QuadraticForm(operator=np.conj(a), side=1)
            f = QuadraticForm(operator=a, side=2)
            assert evaluate(f_conj, phi, phi) == pytest.approx(
                evaluate(f, phi, phi), abs=1e-10
            )

    def test_dimension_mismatch(self):
        cov = build_covariance(BipartiteState(np.array([[1.0], [0.0]])), 0.3)
        form = QuadraticForm(operator=np.eye(2), side=2)
        with pytest.raises(DimensionError):
            form_moments(cov, seed=0, count=10, forms=[form])


class TestAnalyticMean:
    def test_bell_with_background(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        form = QuadraticForm(operator=PROJ_R, side=1)
        assert _block_mean(cov, form).real == pytest.approx(0.75)

    def test_identity_gives_trace(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        form = QuadraticForm(operator=np.eye(2), side=1)
        assert _block_mean(cov, form).real == pytest.approx(
            np.trace(cov.d11).real
        )

    def test_mc_mean_agrees(self):
        rng = np.random.default_rng(61)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        a = rand_selfadjoint(rng, 3)
        form = QuadraticForm(operator=a, side=2)
        moments = form_moments(cov, seed=62, count=100_000, forms=[form])
        est = moments.mean(0, analytic=_block_mean(cov, form).real)
        assert est.within()


class TestRenormalizedMean:
    def test_bell_recovers_marginal(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        form = QuadraticForm(operator=PROJ_R, side=1)
        assert renormalized_mean(cov, form) == pytest.approx(0.5)

    def test_traceless_operator_unchanged(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        sigma_z = np.diag([1.0, -1.0]).astype(complex)
        form = QuadraticForm(operator=sigma_z, side=1)
        assert renormalized_mean(cov, form) == pytest.approx(
            _block_mean(cov, form).real
        )

    def test_zero_epsilon_is_identity(self):
        state = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]]))
        cov = build_covariance(state, 0.0)
        form = QuadraticForm(operator=PROJ_R, side=1)
        assert renormalized_mean(cov, form) == _block_mean(cov, form).real

    def test_matches_marginal_average_both_sides(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            state = rand_state(rng, 3, 2)
            cov = build_covariance(state, epsilon_min(state) + float(rng.uniform(0, 0.3)))
            a1 = rand_selfadjoint(rng, 3)
            a2 = rand_selfadjoint(rng, 2)
            f1 = QuadraticForm(operator=a1, side=1)
            f2 = QuadraticForm(operator=a2, side=2)
            assert renormalized_mean(cov, f1) == pytest.approx(
                marginal_average(state, a1, 1), abs=1e-10
            )
            assert renormalized_mean(cov, f2) == pytest.approx(
                marginal_average(state, a2, 2), abs=1e-10
            )


class TestAnalyticCov:
    def test_fermionic_bs_output_same_port(self):
        cov = build_covariance(bs_output("fermion"), 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_R, side=2)
        assert analytic_cov(cov, f1, f2) == pytest.approx(0.0, abs=1e-14)

    def test_fermionic_bs_output_cross_port(self):
        cov = build_covariance(bs_output("fermion"), 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_L, side=2)
        assert analytic_cov(cov, f1, f2) == pytest.approx(0.5, abs=1e-12)

    def test_equals_tensor_average(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            state = rand_state(rng, d1, d2)
            cov = build_covariance(state, epsilon_min(state) + 0.05)
            a1 = rand_selfadjoint(rng, d1)
            a2 = rand_selfadjoint(rng, d2)
            value = analytic_cov(
                cov,
                QuadraticForm(operator=a1, side=1),
                QuadraticForm(operator=a2, side=2),
            )
            assert value == pytest.approx(
                quantum_average_tensor(state, a1, a2), abs=1e-10
            )

    def test_independent_of_epsilon(self):
        rng = np.random.default_rng(65)
        state = rand_state(rng, 3, 3)
        a1 = rand_selfadjoint(rng, 3)
        a2 = rand_selfadjoint(rng, 3)
        f1 = QuadraticForm(operator=a1, side=1)
        f2 = QuadraticForm(operator=a2, side=2)
        base = epsilon_min(state)
        values = [
            analytic_cov(build_covariance(state, base + extra), f1, f2)
            for extra in (0.0, 0.1, 0.5, 2.0)
        ]
        assert np.ptp(values) <= 1e-12

    def test_phase_invisibility(self):
        rng = np.random.default_rng(66)
        state = rand_state(rng, 2, 2)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        f1 = QuadraticForm(operator=rand_selfadjoint(rng, 2), side=1)
        f2 = QuadraticForm(operator=rand_selfadjoint(rng, 2), side=2)
        base = analytic_cov(cov, f1, f2)
        for _ in range(10):
            g1, g2 = rng.uniform(0, 2 * np.pi, size=2)
            phased = BlockCovariance(d12=np.exp(1j * (g1 - g2)) * cov.d12, epsilon=cov.epsilon)
            assert analytic_cov(phased, f1, f2) == pytest.approx(base, abs=1e-12)

    def test_bilinearity(self):
        rng = np.random.default_rng(67)
        state = rand_state(rng, 2, 2)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        a, b = rand_selfadjoint(rng, 2), rand_selfadjoint(rng, 2)
        a2 = rand_selfadjoint(rng, 2)
        f2 = QuadraticForm(operator=a2, side=2)
        combo = analytic_cov(
            cov, QuadraticForm(operator=2.0 * a + 3.0 * b, side=1), f2
        )
        parts = 2.0 * analytic_cov(
            cov, QuadraticForm(operator=a, side=1), f2
        ) + 3.0 * analytic_cov(cov, QuadraticForm(operator=b, side=1), f2)
        assert combo == pytest.approx(parts, abs=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(68)
        u = rand_complex(rng, 3)
        u /= np.linalg.norm(u)
        v = rand_complex(rng, 2)
        v /= np.linalg.norm(v)
        g = np.outer(u, v)
        state = BipartiteState(g / np.linalg.norm(g))
        cov = build_covariance(state, epsilon_min(state) + 0.05)
        a1 = rand_selfadjoint(rng, 3)
        a2 = rand_selfadjoint(rng, 2)
        value = analytic_cov(
            cov,
            QuadraticForm(operator=a1, side=1),
            QuadraticForm(operator=a2, side=2),
        )
        expected = np.vdot(u, a1 @ u).real * np.vdot(v, a2 @ v).real
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("case", ["experiment", "dense"])
    def test_same_side_pairs_match_moments(self, case):
        # Tr(D M_f D M_g) holds for two forms on one side and for a form
        # with itself (its variance), where the background enters.
        if case == "experiment":
            cov, forms = spin_half_cov(), spin_half_projectors()
            pairs = [(0, 1), (0, 0), (2, 3), (3, 3)]
        else:
            rng = np.random.default_rng(69)
            state = rand_state(rng, 3, 2)
            cov = build_covariance(state, epsilon_min(state) + 0.1)
            forms = [
                QuadraticForm(operator=rand_selfadjoint(rng, d), side=side)
                for d, side in ((3, 1), (3, 1), (2, 2), (2, 2))
            ]
            pairs = [(0, 1), (0, 0), (2, 3), (2, 2)]
        moments = form_moments(cov, 75, 200_000, forms)
        for i, j in pairs:
            value = analytic_cov(cov, forms[i], forms[j])
            if case == "dense":
                assert abs(value) > 0.1
            assert moments.cov(i, j, analytic=value).within(), (i, j)


def _block_mean(cov, form) -> complex:
    """E f_A from the covariance blocks: Tr[D11 A] on side 1,
    Tr[D22 conj(A)] on side 2."""
    if form.side == 1:
        return np.trace(cov.d11 @ form.operator)
    return np.trace(cov.d22 @ np.conj(form.operator))


def _block_cross_cov(cov, f1, f2) -> complex:
    """Tr[A1 D12 conj(A2) D12†], the block expression of a cross pair."""
    return np.trace(f1.operator @ cov.d12 @ np.conj(f2.operator) @ cov.d12.conj().T)


def _joint(cov, form) -> np.ndarray:
    """The form's joint operator M, f_A = z†Mz on z = (phi1, phi2): A
    (side 1) or conj(A) (side 2) in its side's diagonal block of a zero
    (d1 + d2)² matrix."""
    modes = slice(0, cov.d1) if form.side == 1 else slice(cov.d1, cov.d1 + cov.d2)
    joint = np.zeros((cov.d1 + cov.d2,) * 2, dtype=complex)
    joint[modes, modes] = form.operator if form.side == 1 else np.conj(form.operator)
    return joint


OPERATOR_KINDS = ("dense", "diagonal", "repeated", "zero")


def kind_operator(rng, kind: str, d: int) -> np.ndarray:
    """A self-adjoint d × d operator of the given kind: dense, diagonal
    (some entries zero), with a repeated eigenvalue, or zero."""
    if kind == "dense":
        return rand_selfadjoint(rng, d)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(d) * rng.integers(0, 2, d))
    if kind == "repeated":
        u = rand_unitary(rng, d)
        a = u @ np.diag(rng.standard_normal(2)[rng.integers(0, 2, d)]) @ u.conj().T
        return 0.5 * (a + a.conj().T)
    return np.zeros((d, d))


class TestJointOperator:
    """The analytic moments, read off C = R D R†, against the traces of
    the zero-padded joint operators, E f = Tr(D M) and cov(f, g) =
    Tr(D M_f D M_g), and against the same moments written with the
    covariance blocks."""

    @settings(max_examples=80, deadline=None)
    @given(
        state=schmidt_states(),
        margin=st.floats(0.0, 2.0),
        kinds=st.lists(st.sampled_from(OPERATOR_KINDS), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_moments_equal_zero_padded_traces(self, state, margin, kinds, seed):
        rng = np.random.default_rng(seed)
        cov = build_covariance(state, epsilon_min(state) + margin)
        sides = ((state.d1, 1), (state.d1, 1), (state.d2, 2), (state.d2, 2))
        forms = [
            QuadraticForm(operator=kind_operator(rng, kind, d), side=side)
            for kind, (d, side) in zip(kinds, sides)
        ]
        d = cov.assembled()
        joints = [_joint(cov, form) for form in forms]

        def scale(*terms):
            norms = [np.linalg.norm(d) * np.linalg.norm(form.operator) for form in terms]
            return max(1.0, np.prod(norms))

        centre = form_moments(cov, seed=0, count=2, forms=forms).centre
        for form, joint, c in zip(forms, joints, centre):
            mean = np.trace(d @ joint).real
            assert abs(c - mean) <= 1e-12 * scale(form)
            renormalized = mean - cov.epsilon * np.trace(joint).real
            assert abs(renormalized_mean(cov, form) - renormalized) <= 1e-12 * scale(form)
        for i, j in ((0, 2), (1, 3), (3, 0), (0, 1), (2, 3), (0, 0), (3, 3)):
            value = np.trace(d @ joints[i] @ d @ joints[j]).real
            assert abs(analytic_cov(cov, forms[i], forms[j]) - value) <= (
                1e-12 * scale(forms[i], forms[j])
            )

    @settings(max_examples=80, deadline=None)
    @given(
        state=schmidt_states(),
        margin=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_traces_equal_block_expressions(self, state, margin, seed):
        rng = np.random.default_rng(seed)
        cov = build_covariance(state, epsilon_min(state) + margin)
        f1 = QuadraticForm(operator=rand_selfadjoint(rng, state.d1), side=1)
        f2 = QuadraticForm(operator=rand_selfadjoint(rng, state.d2), side=2)
        g1 = QuadraticForm(operator=rand_selfadjoint(rng, state.d1), side=1)
        size = np.linalg.norm(cov.assembled())

        def norm(*forms):
            return np.prod([np.linalg.norm(form.operator) for form in forms])

        cross = analytic_cov(cov, f1, f2)
        assert abs(cross - _block_cross_cov(cov, f1, f2)) <= 1e-12 * size**2 * norm(f1, f2)
        for form in (f1, f2):
            trace_path = renormalized_mean(cov, form) + cov.epsilon * np.trace(form.operator).real
            assert abs(trace_path - _block_mean(cov, form).real) <= 1e-12 * size * norm(form)
        for f, g in ((f1, f2), (f1, g1), (f2, g1), (f1, f1)):
            assert abs(analytic_cov(cov, f, g) - analytic_cov(cov, g, f)) <= (
                1e-12 * size**2 * norm(f, g)
            )

    def test_mis_sized_form_raises_before_drawing(self, monkeypatch):
        import pcsft.quadratic as quadratic

        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(quadratic, "draw_chunks", no_draw)
        cov = build_covariance(BipartiteState(np.array([[1.0], [0.0]])), 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=np.eye(2), side=2)
        with pytest.raises(DimensionError, match=r"operator dim 2 != d2 = 1"):
            quadratic.cross_estimates(cov, [f1], [f2], seed=0, count=100)


class TestMcCov:
    def test_fermionic_anti_bunching_zero(self):
        cov = build_covariance(bs_output("fermion"), 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_R, side=2)
        est = form_moments(cov, 70, 200_000, [f1, f2]).cov(0, 1, analytic=0.0)
        assert est.within()

    def test_bosonic_bunching_zero_cross(self):
        cov = build_covariance(bs_output("boson"), 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_L, side=2)
        est = form_moments(cov, 71, 200_000, [f1, f2]).cov(0, 1, analytic=0.0)
        assert est.within()

    def test_matches_analytic_on_random_state(self):
        rng = np.random.default_rng(72)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        a1 = rand_selfadjoint(rng, 2)
        a2 = rand_selfadjoint(rng, 3)
        f1 = QuadraticForm(operator=a1, side=1)
        f2 = QuadraticForm(operator=a2, side=2)
        moments = form_moments(cov, 73, 200_000, [f1, f2])
        est = moments.cov(0, 1, analytic=analytic_cov(cov, f1, f2))
        assert est.within()
        assert est.n == 200_000

    def test_small_batch_rejected(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_R, side=2)
        with pytest.raises(ValueError, match="at least 2 samples, got 1"):
            form_moments(cov, 76, 1, [f1, f2])

    def test_cross_estimates_forms_c_once(self, monkeypatch):
        # One draw's centres and every pair read one C = R D R†; the
        # estimates are form_moments' with analytic_cov attached.
        import pcsft.quadratic as quadratic

        calls = []
        real = quadratic._readout_covariance
        monkeypatch.setattr(
            quadratic, "_readout_covariance", lambda *args: calls.append(args) or real(*args)
        )
        cov, (f1, f2) = random_dense_case(80)
        left = [f1, QuadraticForm(operator=np.diag([1.0, 0.0, 0.5]), side=1)]
        right = [f2, QuadraticForm(operator=PROJ_L, side=2)]
        estimates = quadratic.cross_estimates(cov, left, right, seed=81, count=5000)
        assert len(calls) == 1
        moments = form_moments(cov, 81, 5000, [*left, *right])
        for i, f in enumerate(left):
            for j, g in enumerate(right):
                est, expected = estimates[i][j], moments.cov(i, len(left) + j)
                assert (est.value, est.std_error, est.n) == (
                    expected.value, expected.std_error, expected.n
                )
                # analytic_cov reads another readout's C: equal to rounding.
                assert est.analytic == pytest.approx(analytic_cov(cov, f, g), abs=1e-14)

    def test_epsilon_invariance_within_errors(self):
        rng = np.random.default_rng(77)
        state = rand_state(rng, 2, 2)
        a1 = rand_selfadjoint(rng, 2)
        a2 = rand_selfadjoint(rng, 2)
        f1 = QuadraticForm(operator=a1, side=1)
        f2 = QuadraticForm(operator=a2, side=2)
        base = epsilon_min(state)
        target = analytic_cov(build_covariance(state, base + 0.05), f1, f2)
        for extra, seed in [(0.05, 78), (0.4, 79)]:
            cov = build_covariance(state, base + extra)
            est = form_moments(cov, seed, 200_000, [f1, f2]).cov(0, 1, analytic=target)
            assert est.within()


class TestEstimate:
    def test_requires_two_samples(self):
        from pcsft.quadratic import Estimate

        with pytest.raises(ValueError):
            Estimate(value=0.0, std_error=0.0, n=1)

    def test_rejects_negative_std_error(self):
        from pcsft.quadratic import Estimate

        with pytest.raises(ValueError, match="std_error must be nonnegative"):
            Estimate(value=0.0, std_error=-1.0, n=2)

    def test_within_needs_analytic(self):
        from pcsft.quadratic import Estimate

        est = Estimate(value=0.0, std_error=1.0, n=10)
        with pytest.raises(ValueError):
            est.within()


def spin_half_projectors():
    return [
        intensity_observable(port, 2, side) for side in (1, 2) for port in "RL"
    ]


def spin_half_cov():
    u = np.kron(beamsplitter_unitary(), np.eye(2))
    state = apply_to_state(UnitaryChannel(u1=u, u2=u), _experiment_input("boson", "half")[0])
    return build_covariance(state, epsilon_min(state) + 0.05)


def random_dense_case(seed: int):
    rng = np.random.default_rng(seed)
    state = rand_state(rng, 3, 2)
    cov = build_covariance(state, epsilon_min(state) + 0.1)
    forms = [
        QuadraticForm(operator=rand_selfadjoint(rng, 3), side=1),
        QuadraticForm(operator=rand_selfadjoint(rng, 2), side=2),
    ]
    return cov, forms


def all_estimates(moments, forms):
    """Every mean and every side-1/side-2 covariance of form_moments."""
    means = [moments.mean(i) for i in range(len(forms))]
    covs = [
        moments.cov(i, j)
        for i, fi in enumerate(forms)
        for j, fj in enumerate(forms)
        if fi.side == 1 and fj.side == 2
    ]
    return means + covs


class TestSampleForms:
    def test_bit_identical_across_worker_counts(self, set_workers):
        cov, forms = random_dense_case(90)
        forms.append(QuadraticForm(operator=np.diag([0.5, 0.0, 2.0]), side=1))
        set_workers(1)
        single = form_moments(cov, seed=91, count=50_000, forms=forms)
        set_workers(3)
        split = form_moments(cov, seed=91, count=50_000, forms=forms)
        assert single.count == 50_000
        assert all_estimates(single, forms) == all_estimates(split, forms)

    @pytest.mark.parametrize("case", ["projectors", "dense"])
    def test_columns_equal_batch_evaluation(self, case, monkeypatch, set_workers):
        # The values form_moments folds, block by block, are each form's
        # complex definition on the samples draw_chunks draws.  One worker
        # hands the workspace the blocks in index order.
        if case == "projectors":
            cov, forms = spin_half_cov(), spin_half_projectors()
        else:
            cov, forms = random_dense_case(92)
        blocks = record_block_values(monkeypatch)
        set_workers(1)
        form_moments(cov, seed=93, count=40_000, forms=forms)
        joint = draw_samples(cov, seed=93, count=40_000)
        for j, form in enumerate(forms):
            values = np.concatenate([block[j] for block in blocks])
            phi = joint[:, : cov.d1] if form.side == 1 else joint[:, cov.d1 :]
            expected = _complex_values(phi, form.operator, form.side == 2)
            scale = np.max(np.abs(form.operator)) * np.sum(np.abs(phi) ** 2, axis=1)
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12 * scale.max())

    def test_estimates_equal_batch_estimators(self):
        # The one-pass moments equal the two-pass estimators on the same
        # samples: means, the covariance and their standard errors.
        cov, (f1, f2) = random_dense_case(94)
        moments = form_moments(cov, seed=95, count=30_000, forms=[f1, f2])
        joint = draw_samples(cov, seed=95, count=30_000)
        x = _complex_values(joint[:, : cov.d1], f1.operator, False)
        y = _complex_values(joint[:, cov.d1 :], f2.operator, True)
        n = len(x)
        for j, values in enumerate((x, y)):
            mean = moments.mean(j)
            assert mean.value == pytest.approx(values.mean(), rel=1e-12, abs=1e-12)
            assert mean.std_error == pytest.approx(
                np.sqrt(np.var(values, ddof=1) / n), rel=1e-10
            )
        products = (x - x.mean()) * (y - y.mean())
        fused = moments.cov(0, 1)
        scale = np.sqrt(np.var(x) * np.var(y))
        assert fused.value == pytest.approx(products.sum() / (n - 1), abs=1e-12 * scale)
        assert fused.std_error == pytest.approx(
            np.sqrt(np.var(products, ddof=1) / n), rel=1e-10
        )

    def test_each_form_evaluated_once_per_chunk(self, monkeypatch):
        # run_beamsplitter evaluates its 4 port intensities once per
        # sample: the Gram the sampler totals has 4 columns of values and
        # counts n rows, every workspace weighs each port's own 2 intensity
        # rows by 1, and the port projectors' supports are disjoint and in
        # mode order, so the readout is the identity, R F is F bit for bit,
        # and the sampler hands over phi itself.
        import pcsft.quadratic as quadratic
        from pcsft.sampler import CHUNK_SIZE
        from pcsft.experiments import run_beamsplitter

        workspaces, covs, transforms, totals = [], [], [], []
        real_init = quadratic._Workspace.__init__
        real_draw = quadratic.draw_chunks
        real_factor = quadratic.factor_covariance

        def recording_init(workspace, *args):
            real_init(workspace, *args)
            workspaces.append(workspace)

        def recording_factor(cov):
            covs.append(cov)
            return real_factor(cov)

        def recording_draw(transform, seed, count, make_consumer):
            transforms.append(transform)
            totals.append(real_draw(transform, seed, count, make_consumer))
            return totals[-1]

        monkeypatch.setattr(quadratic._Workspace, "__init__", recording_init)
        monkeypatch.setattr(quadratic, "factor_covariance", recording_factor)
        monkeypatch.setattr(quadratic, "draw_chunks", recording_draw)
        n = 3 * CHUNK_SIZE + 5
        run_beamsplitter("boson", "half", seed=96, n_samples=n)
        assert len(covs) == len(transforms) == len(totals) == 1
        assert totals[0].shape == (9, 9) and totals[0][0, 0] == n
        factor = real_factor(covs[0])
        assert transforms[0].shape == factor.shape == (8, 8)
        assert transforms[0].tobytes() == factor.tobytes()
        assert workspaces
        for workspace in workspaces:
            assert [(span, list(w)) for span, w in workspace._plans] == [
                (slice(2 * j, 2 * j + 2), [1.0, 1.0]) for j in range(4)
            ]

    @pytest.mark.parametrize(
        "case",
        [("boson", "0"), ("fermion", "0"), ("boson", "half"), ("fermion", "half"), (3, 4, 108)],
        ids=["boson-0", "fermion-0", "boson-half", "fermion-half", "3x4"],
    )
    def test_centre_changes_only_rounding(self, case, monkeypatch):
        # The workspaces fold about the analytic means; folded a spread
        # (hundreds of SEs) away instead, every estimate moves by rounding
        # only, so no estimate borrows the analytic value its gate compares
        # it with.  The rounding grows with the square of the offset and
        # with sqrt(count): at this count about 1e-13 of an SE at 1 spread,
        # up to 1.1e-12 at 3.
        import pcsft.quadratic as quadratic

        cov, forms = experiment_case(*case) if len(case) == 2 else verify_case(*case)
        count = 2 * CHUNK_SIZE + 3 * _BLOCK_ROWS + 123
        k = len(forms)
        analytic = form_moments(cov, 109, count, forms)
        spreads = np.array([analytic.mean(i).std_error for i in range(k)]) * np.sqrt(count)
        centre = analytic.centre + spreads
        real_gram, real_draw, totals = quadratic._Workspace.gram, quadratic.draw_chunks, []

        def recording_draw(*args):
            totals.append(real_draw(*args))
            return totals[-1]

        monkeypatch.setattr(
            quadratic._Workspace, "gram", lambda workspace, y, _: real_gram(workspace, y, centre)
        )
        monkeypatch.setattr(quadratic, "draw_chunks", recording_draw)
        form_moments(cov, 109, count, forms)
        shifted = Moments(centre, totals[0])
        pairs = [(analytic.mean(i), shifted.mean(i)) for i in range(k)] + [
            (analytic.cov(i, j), shifted.cov(i, j)) for i in range(k) for j in range(k)
        ]
        for near, far in pairs:
            assert abs(near.value - far.value) <= 1e-12 * near.std_error
            assert abs(near.std_error - far.std_error) <= 1e-12 * near.std_error

    @pytest.mark.parametrize(
        "case", [("boson", "half"), (4, 3, 110)], ids=["boson-half", "4x3"]
    )
    def test_workspace_holds_only_the_moment_rows(self, case):
        # A worker's scratch for k forms is its (1 + 2k) × block_rows
        # moment rows alone: each form reads its own columns of the block,
        # so no buffer holds the intensities of all the readout's columns.
        cov, forms = experiment_case(*case) if len(case) == 2 else verify_case(*case)
        _, plans = _readout(forms, cov.d1, cov.d2)
        workspace = _Workspace(plans, _BLOCK_ROWS)
        held = [a for a in vars(workspace).values() if isinstance(a, np.ndarray)]
        assert sum(a.size for a in held) == (1 + 2 * len(forms)) * _BLOCK_ROWS

    def test_dimension_mismatch(self):
        cov, _ = random_dense_case(97)
        form = QuadraticForm(operator=np.eye(2), side=1)
        with pytest.raises(DimensionError):
            form_moments(cov, seed=0, count=100, forms=[form])


def allocating_moments(cov, seed, count, forms, centre):
    """form_moments as it was before the workspace: fresh arrays for every
    block, on the same readout, with the intensities y.real**2 + y.imag**2
    of each form's columns of the block y, weighted term by term, copied
    into a fresh (1 + 2k, n) array, centred on ``centre``, squared, and
    folded to rows @ rows.T."""
    readout, plans = _readout(forms, cov.d1, cov.d2)

    def consume(index, y):
        parts = [y[:, span] for span, _ in plans]
        columns = [weighted_sum(p.real**2 + p.imag**2, w) for p, (_, w) in zip(parts, plans)]
        k = len(columns)
        rows = np.empty((1 + 2 * k, y.shape[0]))
        rows[0] = 1.0
        d = rows[1 : 1 + k]
        for j, column in enumerate(columns):
            d[j] = column
        d -= centre[:, None]
        np.square(d, out=rows[1 + k :])
        return rows @ rows.T

    factor = factor_covariance(cov)
    gram = draw_chunks(readout @ factor, seed, count, lambda block_rows: consume)
    return Moments(centre, gram)


# Form weights: unit ones, zeros (rows a form drops) and any others.
WEIGHTS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1e6, 1e6))

# Form values of fixed seeded blocks, hashed in a child process: diagonal
# forms with general weights, and a dense form's plan (its eigenvalues
# over its rows of R phi), on a full block and a short one.  Nothing
# before the workspace calls BLAS or LAPACK.
KERNEL_PROBE = """
import hashlib
import numpy as np
from pcsft.quadratic import QuadraticForm, _Workspace, _readout

rng = np.random.default_rng(117)
forms = [
    QuadraticForm(operator=np.diag(rng.standard_normal(d)), side=side)
    for d, side in ((3, 1), (4, 2), (3, 1), (4, 2))
]
readout, plans = _readout(forms, 3, 4)
m = len(readout)
plans.append((slice(m, m + 4), np.sort(rng.standard_normal(4))))
workspace, digest = _Workspace(plans, 4096), hashlib.sha256()
for n in (4096, 1234):
    y = rng.standard_normal((n, 2 * (m + 4))).view(complex)
    digest.update(workspace.rows(y)[1 : 1 + len(plans)].tobytes())
print(digest.hexdigest())
"""


def openblas_coretypes():
    """OpenBLAS kernels to force in turn: the host's own (None), two
    without AVX, Sandybridge (AVX without FMA) and the FMA ones, each where
    the CPU flags allow it; six at most."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    flags = set(next((line.split() for line in lines if line.startswith("flags")), []))
    kernels = [None, "Nehalem", "Katmai"]
    if "avx" in flags:
        kernels.append("Sandybridge")
    if {"avx2", "fma"} <= flags:
        kernels.append("Haswell")
    if "avx512f" in flags:
        kernels.append("SkylakeX")
    return kernels


def experiment_case(statistics, spin):
    """The covariance and the 8 port forms run_beamsplitter uses."""
    state, internal_dim = _experiment_input(statistics, spin)
    u = np.kron(beamsplitter_unitary(), np.eye(internal_dim))
    cov = build_covariance(apply_to_state(UnitaryChannel(u1=u, u2=u), state), "auto")
    forms = [
        intensity_observable(port, internal_dim, side) for side in (1, 2) for port in PORTS
    ]
    return cov, forms


def split_diagonal_case(seed):
    """Forms in the order [diagonal, dense, diagonal, diagonal]: the
    first two diagonal forms have unit weights, but their moment rows are
    not adjacent; the last has general weights."""
    rng = np.random.default_rng(seed)
    cov = build_covariance(rand_state(rng, 3, 2), "auto")
    forms = [
        QuadraticForm(operator=np.diag([1.0, 0.0, -1.0]), side=1),
        QuadraticForm(operator=rand_selfadjoint(rng, 3), side=1),
        QuadraticForm(operator=np.diag([1.0, 1.0]), side=2),
        QuadraticForm(operator=np.diag([0.25, 3.0]), side=2),
    ]
    return cov, forms


def diagonal_weights(rng, kind, d):
    """Weights of a random diagonal operator of dimension d: "unit" ones
    (at most two ±1, the rest 0), whose sum rounds once in any order, or
    "general" ones (standard normal)."""
    if kind == "general":
        return rng.standard_normal(d)
    weights = np.zeros(d)
    picked = rng.choice(d, size=min(d, 2), replace=False)
    weights[picked] = rng.choice([-1.0, 1.0], size=len(picked))
    return weights


def verify_case(d1, d2, seed):
    """A random state and dense observables, as verify-identity takes them."""
    rng = np.random.default_rng(seed)
    cov = build_covariance(rand_state(rng, d1, d2), "auto")
    forms = [
        QuadraticForm(operator=rand_selfadjoint(rng, d1), side=1),
        QuadraticForm(operator=rand_selfadjoint(rng, d2), side=2),
    ]
    return cov, forms


def sliced_block_mismatches() -> tuple[int, list]:
    """(blocks, mismatches): every block draw_chunks hands over, for the
    fermion/0 factor (4 modes), the boson/half factor and a dense 4 × 4
    readout (8), a dense 5 × 5 readout (10) and a 6 × 7 factor (13),
    against ``w @ ft`` computed whole from the same substream normals.
    The counts end on a short block of whole slices and a rest, make one
    block of 1000 rows, and one whose 1-row rest joins the last of the
    transform's slices.  A mismatch names a block whose bytes differ."""
    transforms = {
        "fermion-0": factor_covariance(experiment_case("fermion", "0")[0]),
        "boson-half": factor_covariance(experiment_case("boson", "half")[0]),
        "factor-6x7": factor_covariance(
            build_covariance(rand_state(np.random.default_rng(119), 6, 7), "auto")
        ),
    }
    for d, seed in ((4, 118), (5, 120)):
        cov, forms = verify_case(d, d, seed)
        transforms[f"dense-{d}x{d}"] = _readout(forms, d, d)[0] @ factor_covariance(cov)
    blocks, mismatches = [], []
    for name, transform in transforms.items():
        ft = transform.T * np.sqrt(0.5)
        step = _product_rows(ft)
        for count in (CHUNK_SIZE + 3392, 1000, (_BLOCK_ROWS - 1) // step * step + 1):
            block_rows = min(_BLOCK_ROWS, count)
            w = np.concatenate([
                np.random.Generator(_substream(0, chunk))
                .standard_normal((min(CHUNK_SIZE, count - start), 2 * len(ft)))
                .view(complex)
                for chunk, start in enumerate(range(0, count, CHUNK_SIZE))
            ])

            def check(index, phi):
                whole = w[index * block_rows : index * block_rows + len(phi)] @ ft
                blocks.append(index)
                if phi.tobytes() != whole.tobytes():
                    mismatches.append(f"{name}/{count}/{index}")

            draw_chunks(transform, 0, count, lambda rows: check)
    return len(blocks), mismatches


class TestWorkspace:
    @pytest.mark.parametrize(
        "case",
        [
            ("boson", "0"),
            ("fermion", "0"),
            ("boson", "half"),
            ("fermion", "half"),
            (3, 4, 104),
            (4, 4, 105),
            (2, 3, 106),
        ],
        ids=["boson-0", "fermion-0", "boson-half", "fermion-half", "3x4", "4x4", "2x3"],
    )
    def test_equals_the_allocating_fold_exactly(self, case, set_workers):
        # Same ufuncs, same order: every estimate is equal, not close.
        cov, forms = experiment_case(*case) if len(case) == 2 else verify_case(*case)
        count = 2 * CHUNK_SIZE + 3 * _BLOCK_ROWS + 123  # a short last block
        k = len(forms)
        for workers in (1, 2, 3):
            set_workers(workers)
            fused = form_moments(cov, 107, count, forms)
            reference = allocating_moments(cov, 107, count, forms, fused.centre)
            for moments in (fused, reference):
                assert moments.count == count
            for i in range(k):
                assert fused.mean(i) == reference.mean(i)
                for j in range(k):
                    assert fused.cov(i, j) == reference.cov(i, j)

    def test_blocks_allocate_no_block_sized_scratch(self, monkeypatch):
        # tracemalloc sees numpy's data buffers.  While a worker evaluates
        # and folds a block, traced memory rises by far less than one
        # form's values on that block: the values, intensities and moment
        # rows live in the worker's workspace, whatever the readout.
        import pcsft.quadratic as quadratic

        real_draw = quadratic.draw_chunks
        extra = []

        def measuring_draw(transform, seed, count, make_consumer):
            def make(block_rows):
                consume = make_consumer(block_rows)

                def measured(index, phi):
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    part = consume(index, phi)
                    extra.append(tracemalloc.get_traced_memory()[1] - before)
                    return part

                return measured

            return real_draw(transform, seed, count, make)

        monkeypatch.setattr(quadratic, "draw_chunks", measuring_draw)
        mixed_cov, mixed_forms = random_dense_case(102)  # dense and diagonal
        mixed_forms.append(QuadraticForm(operator=np.diag([1.0, 0.0, 0.5]), side=1))
        apart_cov, apart_forms = split_diagonal_case(110)  # diagonal rows not adjacent
        column = 8 * _BLOCK_ROWS  # bytes of one form's values on a block
        cases = [
            (spin_half_cov(), spin_half_projectors()),
            (mixed_cov, mixed_forms),
            (apart_cov, apart_forms),
        ]
        for cov, forms in cases:
            extra.clear()
            tracemalloc.start()
            try:
                form_moments(cov, seed=103, count=4 * _BLOCK_ROWS, forms=forms)
            finally:
                tracemalloc.stop()
            assert len(extra) == 4
            assert max(extra) < column / 2, extra


class TestBlasIndependence:
    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 kernels")
    def test_form_values_do_not_depend_on_the_blas_kernel(self):
        # One child process per kernel, one at a time: the form values'
        # bytes are the same under every OpenBLAS kernel, with FMA or not.
        src = str(Path(pcsft.__file__).resolve().parent.parent)
        digests = {}
        for kernel in openblas_coretypes():
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel is not None:
                env["OPENBLAS_CORETYPE"] = kernel
            child = subprocess.run(
                [sys.executable, "-c", KERNEL_PROBE],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr
            digests[kernel] = child.stdout.strip()
        assert len(set(digests.values())) == 1, digests


class TestProductSlices:
    # draw_chunks computes each block's product in slices of
    # _product_rows(ft) rows, so that OpenBLAS keeps it on the worker's
    # thread; the blocks it hands over must be the whole-block products,
    # bit for bit.
    def test_slices_equal_the_whole_product(self):
        assert sliced_block_mismatches() == (35, [])

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 kernels")
    def test_slices_equal_the_whole_product_under_every_kernel(self):
        # One child process per kernel, one at a time, as in
        # TestBlasIndependence: the kernels round the product differently,
        # but each rounds the slices as it rounds the whole block.
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(pcsft.__file__).resolve().parent.parent)
        probe = "import test_quadratic as t; blocks, bad = t.sliced_block_mismatches(); print(blocks, *bad)"
        for kernel in openblas_coretypes():
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel is not None:
                env["OPENBLAS_CORETYPE"] = kernel
            child = subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr
            assert child.stdout.split() == ["35"], kernel


class TestFormKernel:
    def test_diagonal_branch_equals_dense_branch(self):
        # The diagonal shortcut agrees with the general (complex) form.
        rng = np.random.default_rng(98)
        phi = rand_complex(rng, 1000, 4)
        weights = rng.standard_normal(4)
        operator = np.diag(weights).astype(complex)
        fast = _diagonal_values(phi, weights)
        for conjugate in (False, True):
            np.testing.assert_allclose(
                fast, _complex_values(phi, operator, conjugate), rtol=1e-13, atol=1e-13
            )

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 5),
        kind=st.sampled_from(["dense", "diagonal", "real"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_equals_complex_definition(self, d, kind, seed):
        # On both sides (plain and conjugated), for random Hermitian A; A is
        # read on its side's own modes exactly when it is diagonal, and in
        # its eigenbasis otherwise: on side 1 A = basis† diag(w) basis, on
        # side 2 (which reads conj(phi2)) A = basisᵀ diag(w) conj(basis).
        rng = np.random.default_rng(seed)
        operator = rand_selfadjoint(rng, d)
        if kind == "diagonal":
            operator = np.diag(np.diagonal(operator).real).astype(complex)
        elif kind == "real":
            operator = operator.real.astype(complex)
        block = rand_complex(rng, 64, d + 2)  # the other side has 2 modes
        is_diagonal = np.array_equal(operator, np.diag(np.diagonal(operator)))
        for side, phi, d1 in ((1, block[:, :d], d), (2, block[:, 2:], 2)):
            form = QuadraticForm(operator=operator, side=side)
            values = block_values(form, block, d1)
            expected = _complex_values(phi, operator, side == 2)
            scale = np.max(np.abs(operator)) * np.sum(np.abs(phi) ** 2, axis=1)
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12 * scale.max())
            if is_diagonal:
                keep = np.diagonal(operator).real != 0.0
                assert np.array_equal(form.basis, np.eye(d)[keep])
                assert np.array_equal(form.weights, np.diagonal(operator).real[keep])
            basis = form.basis if side == 1 else form.basis.conj()
            np.testing.assert_allclose(
                basis.conj().T @ np.diag(form.weights) @ basis,
                operator,
                atol=1e-12 * np.max(np.abs(operator)),
            )

    def test_diagonal_operator_takes_intensity_branch(self):
        # A diagonal form is evaluated from the intensities of phi's own
        # modes: its readout rows are the identity rows of its nonzero
        # weights, and its values are the intensities times the weights,
        # added term by term, bit for bit, whatever the weights.
        rng = np.random.default_rng(99)
        joint = draw_samples(build_covariance(rand_state(rng, 3, 2), 0.3), 0, 100)
        for weights in ([1.0, -2.0, 0.5], [1.0, 0.0, -1.0]):
            weights = np.array(weights)
            keep = weights != 0.0
            form = QuadraticForm(operator=np.diag(weights), side=1)
            readout, plans = _readout([form], 3, 2)
            assert np.array_equal(readout, np.eye(5)[:3][keep])
            assert plans[0][0] == slice(0, np.count_nonzero(keep))
            assert np.array_equal(plans[0][1], weights[keep])
            assert np.array_equal(
                block_values(form, joint, 3), _diagonal_values(joint[:, :3], weights)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        kinds=st.lists(st.sampled_from(["unit", "general"]), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_diagonal_values_do_not_depend_on_other_forms(self, d1, d2, kinds, seed):
        # Each diagonal form's values in a workspace shared with other
        # diagonal forms equal its values in a workspace of its own, bit
        # for bit, whether its weights are unit or general ones.
        rng = np.random.default_rng(seed)
        forms = []
        for kind in kinds:
            side = int(rng.integers(1, 3))
            d = d1 if side == 1 else d2
            forms.append(QuadraticForm(operator=np.diag(diagonal_weights(rng, kind, d)), side=side))
        block = rand_complex(rng, 64, d1 + d2)
        shared = workspace_rows(forms, block, d1)
        for j, form in enumerate(forms):
            alone = workspace_rows([form], block, d1)
            assert np.array_equal(shared[1 + j], alone[1])

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    @pytest.mark.parametrize("spin", ["0", "half"])
    def test_experiment_forms_equal_per_form_weights(
        self, statistics, spin, monkeypatch, set_workers
    ):
        # Each port form's values in form_moments are its weights times
        # its side's intensities added term by term, bit for bit; with 0/1
        # weights, at most two of them nonzero, that sum rounds once, so
        # it is also the product of the intensities with the weights.  One
        # worker hands the workspace the blocks in index order.
        cov, forms = experiment_case(statistics, spin)
        count = CHUNK_SIZE + 2 * _BLOCK_ROWS + 77
        blocks = record_block_values(monkeypatch)
        set_workers(1)
        form_moments(cov, seed=111, count=count, forms=forms)
        joint = draw_samples(cov, seed=111, count=count)
        sides = {1: slice(0, cov.d1), 2: slice(cov.d1, None)}
        for index, values in enumerate(blocks):
            phi = joint[index * _BLOCK_ROWS : (index + 1) * _BLOCK_ROWS]
            intensity = phi.real**2 + phi.imag**2
            for j, form in enumerate(forms):
                weights = np.diagonal(form.operator).real.copy()
                own = intensity[:, sides[form.side]]
                assert np.array_equal(values[j], weighted_sum(own, weights))
                assert np.array_equal(values[j], own @ weights)

    @settings(max_examples=60, deadline=None)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        specs=st.lists(
            st.tuples(st.sampled_from([1, 2]), st.sampled_from(["unit", "general", "dense"])),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_form_equals_complex_definition(self, d1, d2, specs, seed):
        # The one evaluation path on any mix of diagonal forms (unit or
        # general weights) and dense Hermitian ones, several dense forms
        # on one side allowed: every form's values are its complex
        # definition.  The readout has a row per nonzero weight of every
        # form, in form order, and each form's columns are its own rows.
        rng = np.random.default_rng(seed)
        dims = {1: d1, 2: d2}
        forms = []
        for side, kind in specs:
            if kind == "dense":
                operator = rand_selfadjoint(rng, dims[side])
            else:
                operator = np.diag(diagonal_weights(rng, kind, dims[side]))
            forms.append(QuadraticForm(operator=operator, side=side))
        block = rand_complex(rng, 64, d1 + d2)
        rows = workspace_rows(forms, block, d1)
        for j, form in enumerate(forms):
            phi = block[:, :d1] if form.side == 1 else block[:, d1:]
            expected = _complex_values(phi, form.operator, form.side == 2)
            scale = np.max(np.abs(form.operator)) * np.sum(np.abs(phi) ** 2, axis=1)
            np.testing.assert_allclose(
                rows[1 + j], expected, rtol=1e-12, atol=1e-12 * scale.max()
            )
        readout, plans = _readout(forms, d1, d2)
        nonzero = [
            form.dim if kind == "dense" else np.count_nonzero(np.diagonal(form.operator))
            for form, (_, kind) in zip(forms, specs)
        ]
        ends = np.cumsum(nonzero)
        assert readout.shape == (ends[-1], d1 + d2)
        assert [span for span, _ in plans] == [
            slice(end - count, end) for end, count in zip(ends, nonzero)
        ]

    def test_diagonal_rows_need_not_be_adjacent(self):
        # [diagonal, dense, diagonal, diagonal]: the readout holds each
        # form's own rows in form order: modes 0 and 2 of side 1 (its
        # zero weight has none), the dense form's eigenbasis (3 rows),
        # then side 2's two modes once for each of the last two forms,
        # which both read them.  Each form weighs its own rows, into moment
        # rows 1 to 4, whichever forms lie between.
        cov, forms = split_diagonal_case(112)
        block = draw_samples(cov, 113, 300)
        readout, plans = _readout(forms, cov.d1, cov.d2)
        assert readout.shape == (9, 5)
        assert [span for span, _ in plans] == [slice(0, 2), slice(2, 5), slice(5, 7), slice(7, 9)]
        assert np.array_equal(readout[[0, 1, 5, 6, 7, 8]], np.eye(5)[[0, 2, 3, 4, 3, 4]])
        rows = workspace_rows(forms, block, cov.d1)
        for j, form in enumerate(forms):
            phi = block[:, : cov.d1] if form.side == 1 else block[:, cov.d1 :]
            if j != 1:  # the diagonal forms
                weights = np.diagonal(form.operator).real
                assert np.array_equal(rows[1 + j], _diagonal_values(phi, weights))
            expected = _complex_values(phi, form.operator, form.side == 2)
            scale = np.max(np.abs(form.operator)) * np.sum(np.abs(phi) ** 2, axis=1)
            np.testing.assert_allclose(
                rows[1 + j], expected, rtol=1e-12, atol=1e-12 * scale.max()
            )

    @settings(max_examples=60, deadline=None)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        specs=st.lists(
            st.tuples(
                st.sampled_from([1, 2]),
                st.one_of(st.just("dense"), st.lists(WEIGHTS, min_size=4, max_size=4)),
            ),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_form_is_its_term_by_term_sum(self, d1, d2, specs, seed):
        # For any weights and forms, each form's values are its weights
        # times its own intensity rows of R phi, added term by term in row
        # order, bit for bit; a form of no rows has zeros.
        rng = np.random.default_rng(seed)
        dims = {1: d1, 2: d2}
        forms = [
            QuadraticForm(
                operator=(
                    rand_selfadjoint(rng, dims[side])
                    if spec == "dense"
                    else np.diag(spec[: dims[side]])
                ),
                side=side,
            )
            for side, spec in specs
        ]
        readout, plans = _readout(forms, d1, d2)
        y = rand_complex(rng, 64, d1 + d2) @ readout.T
        intensity = y.real**2 + y.imag**2
        rows = _Workspace(plans, len(y)).rows(y)
        for j, (span, weights) in enumerate(plans):
            assert np.array_equal(rows[1 + j], weighted_sum(intensity[:, span], weights))

    def test_zero_operator_has_no_rows(self):
        # A zero operator has no nonzero weight, so its form reads no row:
        # a readout of zero forms only is empty, and a zero form's values
        # are exact zeros beside any other form.
        cov = build_covariance(BELL_SINGLET, 0.3)
        zero1 = QuadraticForm(operator=np.zeros((2, 2)), side=1)
        zero2 = QuadraticForm(operator=np.zeros((2, 2)), side=2)
        for form in (zero1, zero2):
            assert (form.basis.shape, form.weights.shape) == ((0, 2), (0,))
        readout, plans = _readout([zero1, zero2], 2, 2)
        assert readout.shape == (0, 4)
        assert [span for span, _ in plans] == [slice(0, 0), slice(0, 0)]
        for forms in ([zero1, zero2], [zero1, QuadraticForm(operator=PROJ_L, side=2)]):
            moments = form_moments(cov, seed=116, count=5_000, forms=forms)
            for est in (moments.mean(0), moments.cov(0, 1)):
                assert (est.value, est.std_error) == (0.0, 0.0)
            assert moments.mean(1, analytic=_block_mean(cov, forms[1]).real).within()

    @pytest.mark.parametrize("diagonal_side", [1, 2])
    def test_readout_reads_only_the_sides_diagonal_forms_read(self, diagonal_side):
        # verify-identity with one diagonal and one dense operator: the
        # readout holds, in form order, the diagonal form's own modes and
        # the dense form's eigenbasis on its side's columns, d1 + d2 rows,
        # none of them unread.
        cov, forms = random_dense_case(114)
        sides = {1: slice(0, cov.d1), 2: slice(cov.d1, cov.d1 + cov.d2)}
        k = diagonal_side - 1
        weights = np.arange(1.0, forms[k].dim + 1)
        forms[k] = QuadraticForm(operator=np.diag(weights), side=diagonal_side)
        readout, plans = _readout(forms, cov.d1, cov.d2)
        assert [span for span, _ in plans] == [sides[1], sides[2]]
        own = sides[diagonal_side]
        assert np.array_equal(readout[own], np.eye(cov.d1 + cov.d2)[own])
        dense = forms[1 - k]
        expected = np.zeros((dense.dim, cov.d1 + cov.d2), dtype=complex)
        expected[:, sides[dense.side]] = dense.basis
        assert np.array_equal(readout[sides[dense.side]], expected)
        block = draw_samples(cov, 115, 300)
        rows = workspace_rows(forms, block, cov.d1)
        for j, form in enumerate(forms):
            phi = block[:, : cov.d1] if form.side == 1 else block[:, cov.d1 :]
            expected = _complex_values(phi, form.operator, form.side == 2)
            scale = np.max(np.abs(form.operator)) * np.sum(np.abs(phi) ** 2, axis=1)
            np.testing.assert_allclose(
                rows[1 + j], expected, rtol=1e-12, atol=1e-12 * scale.max()
            )


def stroud_5_2(d: int) -> list[tuple[float, np.ndarray]]:
    """Stroud's rule E_n^{r²} 5-2 (Stroud, Approximate Calculation of
    Multiple Integrals, 1971) for N(0, I_d), as (weight, points) per weight
    class: the origin; ±sqrt(d + 2) e_i; ±sqrt((d + 2) / 2) (e_i ± e_j) for
    i < j.  2d² + 1 points; exact for every polynomial of degree <= 5."""
    eye = np.eye(d)
    i, j = np.triu_indices(d, 1)
    pairs = [a * eye[i] + b * eye[j] for a in (1.0, -1.0) for b in (1.0, -1.0)]
    return [
        (2.0 / (d + 2), np.zeros((1, d))),
        ((4.0 - d) / (2.0 * (d + 2) ** 2), np.sqrt(d + 2.0) * np.concatenate([eye, -eye])),
        (1.0 / (d + 2) ** 2, np.sqrt((d + 2) / 2.0) * np.concatenate(pairs)),
    ]


class PointSource:
    """Stands in for np.random.Generator in the sampler: standard_normal(out=)
    writes the next rows of ``points`` where the ziggurat writes normals."""

    def __init__(self, points: np.ndarray):
        self.points, self.taken = points, 0

    def standard_normal(self, out: np.ndarray):
        rows = out.shape[0]
        assert self.taken + rows <= len(self.points)
        out[...] = self.points[self.taken : self.taken + rows]
        self.taken += rows


def cubature_error(monkeypatch, cov, forms, scale: float = 1.0) -> float:
    """The largest error of the rule-weighted Gram of [1, d, d²] against
    E 1 = 1, E d = 0 and E d_i d_j = cov(f_i, f_j) read off C by Isserlis,
    relative to max |C|² · max |w|².  Each weight class of Stroud 5-2 is
    one draw_chunks call through R F, ``scale`` times, with the consumer
    form_moments uses, about the analytic means.  E d and E d d are of
    degree 2 and 4 in the normals, so the rule gives them exactly."""
    readout, plans, c = _readout_covariance(cov, forms)
    centre = np.array([weights @ c.diagonal()[rows].real for rows, weights in plans])
    transform = scale * (readout @ factor_covariance(cov))

    def make_consumer(block_rows):
        workspace = _Workspace(plans, block_rows)
        return lambda index, y: workspace.gram(y, centre)

    total = 0.0
    for weight, points in stroud_5_2(2 * transform.shape[1]):
        source = PointSource(points)
        monkeypatch.setattr(np.random, "Generator", lambda bits: source)
        total = total + weight * draw_chunks(transform, 0, len(points), make_consumer)
        assert source.taken == len(points)
    k = len(forms)
    expected = np.zeros((1 + k, 1 + k))
    expected[0, 0] = 1.0
    for a in range(k):
        for b in range(k):
            expected[1 + a, 1 + b] = _cov(c, plans[a], plans[b])
    peak = np.max(np.abs(c)) ** 2 * max(np.max(np.abs(w)) for _, w in plans) ** 2
    return float(np.max(np.abs(total[: 1 + k, : 1 + k] - expected)) / peak)


class TestCubatureOracle:
    """The whole sample path, from the factor through the block product
    and the form stage to the per-block Gram, integrated exactly: far
    sharper than a 5-SE gate, which at 200k samples misses errors below
    about 1e-3."""

    @pytest.mark.parametrize("d", [2, 5, 8, 16])
    def test_rule_moments(self, d):
        # Weights sum to 1; E x_i² = 1, E x_i⁴ = 3, E x_i² x_j² = 1, and
        # every odd moment up to degree 5 vanishes.
        classes = stroud_5_2(d)
        assert sum(len(points) for _, points in classes) == 2 * d * d + 1
        x = np.concatenate([points for _, points in classes])
        w = np.concatenate([np.full(len(points), weight) for weight, points in classes])
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(w @ x**2, 1.0, atol=1e-13)
        np.testing.assert_allclose(w @ x**4, 3.0, atol=1e-13)
        np.testing.assert_allclose((w * x[:, 0] ** 2) @ x[:, 1] ** 2, 1.0, atol=1e-13)
        for odd in (x, x**3, x**5, x[:, :1] * x**2):
            np.testing.assert_allclose(w @ odd, 0.0, atol=1e-12)

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    @pytest.mark.parametrize("spin", ["0", "half"])
    def test_experiments(self, monkeypatch, statistics, spin):
        assert cubature_error(monkeypatch, *experiment_case(statistics, spin)) < 1e-12

    @pytest.mark.parametrize("d1, d2", [(2, 3), (4, 4), (7, 7)])
    def test_dense_pairs(self, monkeypatch, d1, d2):
        # 7 × 7 has 14 modes and 1569 points: the pair class is one block
        # the sampler multiplies in several 384-row slices.
        cov, forms = verify_case(d1, d2, 116 + d1)
        if d1 == 7:
            assert _product_rows(np.empty((14, 14))) == 384
        assert cubature_error(monkeypatch, cov, forms) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(state=schmidt_states(), seed=st.integers(0, 2**32 - 1))
    def test_drawn_dense_pairs(self, state, seed):
        rng = np.random.default_rng(seed)
        cov = build_covariance(state, "auto")
        forms = [
            QuadraticForm(operator=rand_selfadjoint(rng, state.d1), side=1),
            QuadraticForm(operator=rand_selfadjoint(rng, state.d2), side=2),
        ]
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert cubature_error(monkeypatch, cov, forms) < 1e-12

    @pytest.mark.parametrize(
        "case", [experiment_case("fermion", "half"), verify_case(7, 7, 123)],
        ids=["fermion-half", "7x7"],
    )
    def test_a_transform_off_by_1e_9_fails(self, monkeypatch, case):
        # The companion: the oracle sees a relative error of 1e-9 in the
        # transform, which moves the covariances by about 4e-9.
        assert cubature_error(monkeypatch, *case, scale=1 + 1e-9) > 1e-10
