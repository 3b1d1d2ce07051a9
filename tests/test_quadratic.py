"""Quadratic-form observables: analytic statistics and MC estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcsft import (
    PRNG_ID,
    DimensionError,
    IndexLayout,
    PhasePair,
    QuadraticForm,
    RealityError,
    SelfAdjointnessError,
    analytic_cov,
    analytic_mean,
    beamsplitter_unitary,
    build_covariance,
    epsilon_min,
    input_state,
    intensity_observable,
    marginal_average,
    matricize,
    phase_transform,
    form_moments,
    quantum_average_tensor,
    renormalized_mean,
    spin_state,
    UnitaryChannel,
    apply_to_state,
)
from pcsft.quadratic import _Rows, _form_kernel
from conftest import draw_samples, rand_complex, rand_selfadjoint, rand_state


def _diagonal_values(phi, weights):
    """Reference for the intensity branch: <A phi_n, phi_n> for A = diag(weights)."""
    return (phi.real**2 + phi.imag**2) @ weights


def _complex_values(phi, operator, conjugate):
    """The complex definition Re sum_k conj(psi_k) (psi @ A^T)_k, with
    psi = conj(phi) if ``conjugate`` else phi."""
    psi = np.conj(phi) if conjugate else phi
    return np.einsum("nk,nk->n", psi @ operator.T, np.conj(psi)).real

C = 1.0 / np.sqrt(2.0)
BELL_SINGLET = matricize(np.array([[0.0, C], [-C, 0.0]]))
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


def evaluate(form, phi1, phi2) -> np.ndarray:
    """f_A on the single sample (phi1, phi2), read off a joint block the
    way form_moments reads a sampler block."""
    phi1 = np.atleast_2d(phi1)
    block = np.hstack([phi1, np.atleast_2d(phi2)]).astype(complex)
    d1 = phi1.shape[1]
    phi = block[:, :d1] if form.side == 1 else block[:, d1:]
    return _form_kernel(form.operator, form.side == 2)(_Rows(phi))


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
        cov = build_covariance(matricize(np.array([[1.0], [0.0]])), 0.3)
        form = QuadraticForm(operator=np.eye(2), side=2)
        with pytest.raises(DimensionError):
            form_moments(cov, seed=0, count=10, forms=[form])


class TestAnalyticMean:
    def test_bell_with_background(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        form = QuadraticForm(operator=PROJ_R, side=1)
        assert analytic_mean(cov, form) == pytest.approx(0.75)

    def test_identity_gives_trace(self):
        cov = build_covariance(BELL_SINGLET, 0.25)
        form = QuadraticForm(operator=np.eye(2), side=1)
        assert analytic_mean(cov, form) == pytest.approx(
            np.trace(cov.d11).real
        )

    def test_mc_mean_agrees(self):
        rng = np.random.default_rng(61)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        a = rand_selfadjoint(rng, 3)
        form = QuadraticForm(operator=a, side=2)
        moments = form_moments(cov, seed=62, count=100_000, forms=[form])
        est = moments.mean(0, analytic=analytic_mean(cov, form))
        assert est.within(5.0)


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
            analytic_mean(cov, form)
        )

    def test_zero_epsilon_is_identity(self):
        state = matricize(np.array([[1.0, 0.0], [0.0, 0.0]]))
        cov = build_covariance(state, 0.0)
        form = QuadraticForm(operator=PROJ_R, side=1)
        assert renormalized_mean(cov, form) == analytic_mean(cov, form)

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
            gamma = PhasePair(*rng.uniform(0, 2 * np.pi, size=2))
            assert analytic_cov(phase_transform(cov, gamma), f1, f2) == pytest.approx(
                base, abs=1e-12
            )

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
        state = matricize(np.outer(u, v), renormalize=True)
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

    def test_side_validation(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        with pytest.raises(ValueError):
            analytic_cov(cov, f1, f1)


class TestMcCov:
    def test_fermionic_anti_bunching_zero(self):
        cov = build_covariance(bs_output("fermion"), 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_R, side=2)
        est = form_moments(cov, 70, 200_000, [f1, f2]).cov(0, 1, analytic=0.0)
        assert est.within(5.0)

    def test_bosonic_bunching_zero_cross(self):
        cov = build_covariance(bs_output("boson"), 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_L, side=2)
        est = form_moments(cov, 71, 200_000, [f1, f2]).cov(0, 1, analytic=0.0)
        assert est.within(5.0)

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
        assert est.within(5.0)
        assert est.n == 200_000
        assert est.seed == 73

    def test_small_batch_rejected(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_R, side=2)
        moments = form_moments(cov, 76, 1, [f1, f2])
        with pytest.raises(ValueError):
            moments.cov(0, 1)

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
            assert est.within(5.0)


class TestEstimate:
    def test_requires_two_samples(self):
        from pcsft import Estimate

        with pytest.raises(ValueError):
            Estimate(value=0.0, std_error=0.0, n=1)

    def test_within_needs_analytic(self):
        from pcsft import Estimate

        est = Estimate(value=0.0, std_error=1.0, n=10)
        with pytest.raises(ValueError):
            est.within()


def spin_half_projectors():
    layout = IndexLayout(space_dim=2, internal_dim=2)
    return [
        intensity_observable(port, layout, side) for side in (1, 2) for port in "RL"
    ]


def spin_half_cov():
    u = np.kron(beamsplitter_unitary(), np.eye(2))
    state = apply_to_state(UnitaryChannel(u1=u, u2=u), spin_state("sb5"))
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
    def test_bit_identical_across_worker_counts(self):
        cov, forms = random_dense_case(90)
        forms.append(QuadraticForm(operator=np.diag([0.5, 0.0, 2.0]), side=1))
        single = form_moments(cov, seed=91, count=50_000, forms=forms, workers=1)
        split = form_moments(cov, seed=91, count=50_000, forms=forms, workers=3)
        assert single.count == 50_000
        assert all_estimates(single, forms) == all_estimates(split, forms)

    @pytest.mark.parametrize("case", ["projectors", "dense"])
    def test_columns_equal_batch_evaluation(self, case, monkeypatch):
        # The values form_moments accumulates, block by block, are each
        # form's complex definition on the samples draw_chunks draws.
        import pcsft.quadratic as quadratic

        if case == "projectors":
            cov, forms = spin_half_cov(), spin_half_projectors()
        else:
            cov, forms = random_dense_case(92)
        blocks = {}
        real_add = quadratic.Moments.add

        def recording_add(self, index, columns):
            blocks[index] = [np.array(column) for column in columns]
            real_add(self, index, columns)

        monkeypatch.setattr(quadratic.Moments, "add", recording_add)
        form_moments(cov, seed=93, count=40_000, forms=forms)
        joint = draw_samples(cov, seed=93, count=40_000)
        for j, form in enumerate(forms):
            values = np.concatenate([blocks[b][j] for b in range(len(blocks))])
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
        # sample: the rows each kernel sees sum to n.
        import pcsft.quadratic as quadratic
        from pcsft import CHUNK_SIZE, run_beamsplitter

        rows = []
        real_kernel = quadratic._form_kernel

        def counting_kernel(operator, conjugate):
            kernel = real_kernel(operator, conjugate)
            index = len(rows)
            rows.append(0)

            def counted(phi):
                rows[index] += phi.phi.shape[0]
                return kernel(phi)

            return counted

        monkeypatch.setattr(quadratic, "_form_kernel", counting_kernel)
        n = 3 * CHUNK_SIZE + 5
        run_beamsplitter("boson", "half", seed=96, n_samples=n)
        assert rows == [n, n, n, n]

    def test_intensity_computed_once_per_side_and_chunk(self, monkeypatch):
        # The 4 port projectors of run_beamsplitter share one intensity
        # matrix per side and block: one computation per side and block,
        # whose rows sum to n per side.
        import pcsft.quadratic as quadratic
        from pcsft import CHUNK_SIZE, run_beamsplitter
        from pcsft.sampler import _BLOCK_ROWS

        calls = []
        real_intensity = quadratic._Rows.intensity.fget

        def counting_intensity(rows):
            if rows._intensity is None:
                calls.append(rows.phi.shape)
            return real_intensity(rows)

        monkeypatch.setattr(quadratic._Rows, "intensity", property(counting_intensity))
        n = 3 * CHUNK_SIZE + 5
        run_beamsplitter("boson", "half", seed=96, n_samples=n)
        blocks = -(-n // _BLOCK_ROWS)
        assert len(calls) == 2 * blocks
        assert {width for _, width in calls} == {4}
        assert sum(size for size, _ in calls) == 2 * n

    def test_dimension_mismatch(self):
        cov, _ = random_dense_case(97)
        form = QuadraticForm(operator=np.eye(2), side=1)
        with pytest.raises(DimensionError):
            form_moments(cov, seed=0, count=100, forms=[form])


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
        # On both sides (plain and conjugated), for random Hermitian A; the
        # diagonal branch, which reads the shared intensities, is taken
        # exactly when A is diagonal.
        rng = np.random.default_rng(seed)
        operator = rand_selfadjoint(rng, d)
        if kind == "diagonal":
            operator = np.diag(np.diagonal(operator).real).astype(complex)
        elif kind == "real":
            operator = operator.real.astype(complex)
        phi = rand_complex(rng, 64, d + 2)[:, :d]  # strided, as in a block
        scale = np.max(np.abs(operator)) * np.sum(np.abs(phi) ** 2, axis=1)
        for conjugate in (False, True):
            rows = _Rows(phi)
            values = _form_kernel(operator, conjugate)(rows)
            expected = _complex_values(phi, operator, conjugate)
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12 * scale.max())
            is_diagonal = np.array_equal(operator, np.diag(np.diagonal(operator)))
            assert (rows._intensity is not None) == is_diagonal

    def test_diagonal_operator_takes_intensity_branch(self):
        rng = np.random.default_rng(99)
        weights = np.array([1.0, -2.0, 0.5])
        joint = draw_samples(build_covariance(rand_state(rng, 3, 2), 0.3), 0, 100)
        assert np.array_equal(
            _form_kernel(np.diag(weights), False)(_Rows(joint[:, :3])),
            _diagonal_values(joint[:, :3], weights),
        )

    def test_dense_branch_rejects_corrupted_operator(self):
        cov, (f1, f2) = random_dense_case(100)
        corrupt = np.array(f1.operator)
        corrupt[0, 1] += 0.5j  # no longer self-adjoint
        object.__setattr__(f1, "operator", corrupt)
        with pytest.raises(RealityError):
            _form_kernel(f1.operator, False)
        with pytest.raises(RealityError):
            form_moments(cov, seed=101, count=1_000, forms=[f1, f2])
