"""Quadratic-form observables: analytic statistics and MC estimators."""

import numpy as np
import pytest

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
    draw,
    epsilon_min,
    eval_form_batch,
    input_state,
    intensity_observable,
    marginal_average,
    matricize,
    mc_cov,
    mc_mean,
    phase_transform,
    form_moments,
    quantum_average_tensor,
    renormalized_mean,
    SampleBatch,
    spin_state,
    UnitaryChannel,
    apply_to_state,
)
from pcsft.quadratic import _dense_values
from conftest import rand_complex, rand_selfadjoint, rand_state


def _diagonal_values(phi, weights):
    """Reference for the intensity branch: <A phi_n, phi_n> for A = diag(weights)."""
    return (phi.real**2 + phi.imag**2) @ weights

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


def one_row(phi1, phi2) -> SampleBatch:
    """A batch holding the single sample (phi1, phi2)."""
    return SampleBatch(np.atleast_2d(phi1), np.atleast_2d(phi2), seed=0)


class TestEvalForm:
    def test_identity_on_basis_vector(self):
        form = QuadraticForm(operator=np.eye(2), side=1)
        batch = one_row([1.0, 0.0], [0.0, 0.0])
        assert eval_form_batch(form, batch) == pytest.approx([1.0])

    def test_projector_reads_intensity(self):
        form = QuadraticForm(operator=PROJ_R, side=1)
        batch = one_row([0.3 + 0.4j, 1.0], [0.0, 0.0])
        assert eval_form_batch(form, batch) == pytest.approx([0.25])

    def test_conjugate_operator_pairing(self):
        # f_Ā(phi) = f_A(conj phi)
        rng = np.random.default_rng(60)
        for _ in range(30):
            a = rand_selfadjoint(rng, 3)
            batch = one_row(rand_complex(rng, 3), np.zeros(1))
            f_conj = QuadraticForm(operator=np.conj(a), side=1)
            f = QuadraticForm(operator=a, side=1)
            assert eval_form_batch(f_conj, batch) == pytest.approx(
                eval_form_batch(f, batch, conjugate=True), abs=1e-10
            )

    def test_dimension_mismatch(self):
        form = QuadraticForm(operator=np.eye(3), side=1)
        batch = one_row([1.0, 0.0], [0.0])
        with pytest.raises(DimensionError):
            eval_form_batch(form, batch)


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
        batch = draw(cov, seed=62, count=100_000)
        est = mc_mean(batch, form, analytic=analytic_mean(cov, form))
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
        batch = draw(cov, seed=70, count=200_000)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_R, side=2)
        est = mc_cov(batch, f1, f2, analytic=0.0)
        assert est.within(5.0)

    def test_bosonic_bunching_zero_cross(self):
        cov = build_covariance(bs_output("boson"), 0.3)
        batch = draw(cov, seed=71, count=200_000)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_L, side=2)
        est = mc_cov(batch, f1, f2, analytic=0.0)
        assert est.within(5.0)

    def test_matches_analytic_on_random_state(self):
        rng = np.random.default_rng(72)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        a1 = rand_selfadjoint(rng, 2)
        a2 = rand_selfadjoint(rng, 3)
        f1 = QuadraticForm(operator=a1, side=1)
        f2 = QuadraticForm(operator=a2, side=2)
        batch = draw(cov, seed=73, count=200_000)
        est = mc_cov(batch, f1, f2, analytic=analytic_cov(cov, f1, f2))
        assert est.within(5.0)
        assert est.n == 200_000
        assert est.seed == 73

    def test_unconjugated_diagnostic_variant_differs(self):
        # For generically complex samples the two pairings disagree.
        rng = np.random.default_rng(74)
        state = rand_state(rng, 2, 2)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        a = rand_selfadjoint(rng, 2)
        f1 = QuadraticForm(operator=a, side=1)
        f2 = QuadraticForm(operator=rand_selfadjoint(rng, 2), side=2)
        batch = draw(cov, seed=75, count=50_000)
        paired = mc_cov(batch, f1, f2)
        unpaired = mc_cov(batch, f1, f2, conjugate_second=False)
        assert paired.value != unpaired.value

    def test_small_batch_rejected(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        batch = draw(cov, seed=76, count=1)
        f1 = QuadraticForm(operator=PROJ_R, side=1)
        f2 = QuadraticForm(operator=PROJ_R, side=2)
        with pytest.raises(ValueError):
            mc_cov(batch, f1, f2)

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
            batch = draw(cov, seed=seed, count=200_000)
            est = mc_cov(batch, f1, f2, analytic=target)
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
        # The values form_moments accumulates, block by block, are the
        # batch evaluation of each form on draw's batch.
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
        batch = draw(cov, seed=93, count=40_000)
        for j, form in enumerate(forms):
            values = np.concatenate([blocks[b][j] for b in range(len(blocks))])
            expected = eval_form_batch(form, batch, conjugate=form.side == 2)
            assert np.array_equal(values, expected)

    def test_estimates_equal_batch_estimators(self):
        cov, (f1, f2) = random_dense_case(94)
        fused = form_moments(cov, seed=95, count=30_000, forms=[f1, f2]).cov(0, 1)
        batched = mc_cov(draw(cov, seed=95, count=30_000), f1, f2)
        assert fused == batched

    def test_each_form_evaluated_once_per_chunk(self, monkeypatch):
        # run_beamsplitter evaluates its 4 port intensities once per
        # sample (the rows each kernel sees sum to n) and never assembles
        # a full sample batch.
        import pcsft.quadratic as quadratic
        import pcsft.sampler as sampler
        from pcsft import CHUNK_SIZE, run_beamsplitter

        rows = []
        real_kernel = quadratic._form_kernel

        def counting_kernel(operator):
            kernel = real_kernel(operator)
            index = len(rows)
            rows.append(0)

            def counted(phi, conjugate):
                rows[index] += phi.phi.shape[0]
                return kernel(phi, conjugate)

            return counted

        def no_batch(*args, **kwargs):
            raise AssertionError("a full sample batch was assembled")

        monkeypatch.setattr(quadratic, "_form_kernel", counting_kernel)
        monkeypatch.setattr(sampler.SampleBatch, "__init__", no_batch)
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
        rng = np.random.default_rng(98)
        phi = rand_complex(rng, 1000, 4)
        weights = rng.standard_normal(4)
        operator_t = np.diag(weights).astype(complex)
        fast = _diagonal_values(phi, weights)
        for conjugate in (False, True):
            np.testing.assert_allclose(
                fast, _dense_values(phi, operator_t, conjugate), rtol=1e-13, atol=1e-13
            )

    def test_diagonal_operator_takes_intensity_branch(self):
        rng = np.random.default_rng(99)
        form = QuadraticForm(operator=np.diag([1.0, -2.0, 0.5]), side=1)
        batch = draw(build_covariance(rand_state(rng, 3, 2), 0.3), seed=0, count=100)
        assert np.array_equal(
            eval_form_batch(form, batch),
            _diagonal_values(batch.phi1, np.array([1.0, -2.0, 0.5])),
        )

    def test_dense_branch_rejects_corrupted_operator(self):
        cov, (f1, f2) = random_dense_case(100)
        batch = draw(cov, seed=101, count=1_000)
        corrupt = np.array(f1.operator)
        corrupt[0, 1] += 0.5j  # no longer self-adjoint
        object.__setattr__(f1, "operator", corrupt)
        with pytest.raises(RealityError):
            eval_form_batch(f1, batch)
        with pytest.raises(RealityError):
            form_moments(cov, seed=101, count=1_000, forms=[f1, f2])
