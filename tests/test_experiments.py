"""Beam-splitter bunching / anti-bunching pipelines."""

import tracemalloc

import numpy as np
import pytest

from pcsft.hilbert import BipartiteState, quantum_average_tensor
from pcsft.covariance import (
    SymmetryTag,
    build_covariance,
    classify_symmetry,
    epsilon_min,
)
from pcsft.sampler import CHUNK_SIZE
from pcsft.quadratic import QuadraticForm, analytic_cov
from pcsft.channels import UnitaryChannel, apply_to_state
from pcsft.experiments import (
    beamsplitter_unitary,
    input_state,
    intensity_observable,
    _experiment_input,
    run_beamsplitter,
)

SPIN0 = 1  # internal dimension of a component
SPIN_HALF = 2


class TestBeamsplitterUnitary:
    def test_is_unitary(self):
        u = beamsplitter_unitary()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-15)

    def test_entries(self):
        c = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(beamsplitter_unitary(), [[c, -c], [c, c]])

    def test_determinant_one(self):
        assert np.linalg.det(beamsplitter_unitary()) == pytest.approx(1.0)


class TestInputStates:
    def test_symmetric_input(self):
        state = input_state("boson")
        c = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, [[0, c], [c, 0]])
        assert classify_symmetry(state, 1e-12).tag is SymmetryTag.BOSONIC

    def test_antisymmetric_input(self):
        state = input_state("fermion")
        assert np.max(np.abs(state.amplitudes + state.amplitudes.T)) == 0.0
        assert classify_symmetry(state, 1e-12).tag is SymmetryTag.FERMIONIC

    def test_normalized(self):
        for statistics in ("boson", "fermion"):
            assert np.linalg.norm(input_state(statistics).amplitudes) == pytest.approx(1.0)

    def test_unknown_statistics(self):
        with pytest.raises(ValueError):
            input_state("anyon")


class TestSpinStates:
    """The spin-1/2 inputs, space factor (x) the antisymmetric internal
    pair: sb5 is the bosonic one, sb5k the fermionic one."""

    def test_sb5_amplitudes(self):
        state, internal_dim = _experiment_input("boson", "half")
        amp = state.amplitudes
        nonzero = np.abs(amp) > 0
        assert internal_dim == SPIN_HALF
        assert nonzero.sum() == 4
        assert np.allclose(np.abs(amp[nonzero]), 0.5)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_sb5_is_transpose_symmetric(self):
        state, _ = _experiment_input("boson", "half")
        amp = state.amplitudes
        assert np.max(np.abs(amp - amp.T)) == 0.0
        assert classify_symmetry(state, 1e-12).tag is SymmetryTag.BOSONIC

    def test_sb5k_is_antisymmetric(self):
        state, _ = _experiment_input("fermion", "half")
        amp = state.amplitudes
        assert np.max(np.abs(amp + amp.T)) == 0.0
        assert classify_symmetry(state, 1e-12).tag is SymmetryTag.FERMIONIC

    def test_expected_nonzero_positions(self):
        # layout: index = 2*space + internal; entries at (R+,L-), (R-,L+),
        # (L+,R-), (L-,R+)
        amp = _experiment_input("boson", "half")[0].amplitudes
        assert amp[0, 3] == pytest.approx(0.5)
        assert amp[1, 2] == pytest.approx(-0.5)
        assert amp[2, 1] == pytest.approx(-0.5)
        assert amp[3, 0] == pytest.approx(0.5)

    def test_spin0_is_the_two_port_input(self):
        for statistics in ("boson", "fermion"):
            state, internal_dim = _experiment_input(statistics, "0")
            assert internal_dim == SPIN0
            assert np.array_equal(state.amplitudes, input_state(statistics).amplitudes)


class TestIntensityObservable:
    def test_spinless_port_r(self):
        form = intensity_observable("R", SPIN0, side=1)
        np.testing.assert_allclose(form.operator, np.diag([1.0, 0.0]))

    def test_spin_half_port_r(self):
        form = intensity_observable("R", SPIN_HALF, side=1)
        np.testing.assert_allclose(form.operator, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_idempotent(self):
        for internal_dim in (SPIN0, SPIN_HALF):
            for port in ("R", "L"):
                op = intensity_observable(port, internal_dim, side=2).operator
                np.testing.assert_allclose(op @ op, op)

    def test_unknown_port(self):
        with pytest.raises(ValueError):
            intensity_observable("X", SPIN0, side=1)


class TestRunBeamsplitterAnalytic:
    def test_fermion_spin0_anti_bunching(self):
        report = run_beamsplitter("fermion", spin="0", seed=1, n_samples=1000)
        assert report.g["RR"].analytic == pytest.approx(0.0, abs=1e-12)
        assert report.g["LL"].analytic == pytest.approx(0.0, abs=1e-12)
        assert report.g["RL"].analytic == pytest.approx(0.5, abs=1e-12)
        assert report.g["LR"].analytic == pytest.approx(0.5, abs=1e-12)

    def test_boson_spin0_bunching(self):
        report = run_beamsplitter("boson", spin="0", seed=1, n_samples=1000)
        assert report.g["RL"].analytic == pytest.approx(0.0, abs=1e-12)
        assert report.g["RR"].analytic == pytest.approx(0.5, abs=1e-12)

    def test_spin_half_sb5_collision(self):
        report = run_beamsplitter("boson", spin="half", seed=1, n_samples=1000)
        assert report.g["RR"].analytic == pytest.approx(0.0, abs=1e-12)
        assert report.g["RL"].analytic == pytest.approx(0.5, abs=1e-12)
        assert report.classified_symmetry == "Bosonic"

    def test_spin_half_sb5k_collision(self):
        report = run_beamsplitter("fermion", spin="half", seed=1, n_samples=1000)
        assert report.g["RL"].analytic == pytest.approx(0.0, abs=1e-12)
        assert report.g["RR"].analytic == pytest.approx(0.5, abs=1e-12)
        assert report.classified_symmetry == "Fermionic"

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            run_beamsplitter("fermion", n_samples=100)

    def test_unknown_spin(self):
        with pytest.raises(ValueError, match="spin must be '0' or 'half', got '1'"):
            run_beamsplitter("boson", spin="1")

    @pytest.mark.parametrize("spin", ["0", "half"])
    def test_unknown_statistics(self, spin):
        with pytest.raises(ValueError, match="statistics must be 'boson' or 'fermion', got 'anyon'"):
            run_beamsplitter("anyon", spin=spin)

    def test_auto_epsilon_margin(self):
        report = run_beamsplitter("fermion", spin="0", seed=1, n_samples=1000)
        u = beamsplitter_unitary()
        out = apply_to_state(UnitaryChannel(u1=u, u2=u), input_state("fermion"))
        assert report.epsilon == pytest.approx(epsilon_min(out) + 0.05, abs=1e-12)

    def test_analytic_g_is_port_symmetric(self):
        for statistics in ("boson", "fermion"):
            for spin in ("0", "half"):
                report = run_beamsplitter(statistics, spin=spin, seed=2, n_samples=1000)
                assert report.g["RL"].analytic == pytest.approx(
                    report.g["LR"].analytic, abs=1e-12
                )


class TestRunBeamsplitterMonteCarlo:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_fermion_spin0_three_seeds(self, seed):
        report = run_beamsplitter("fermion", spin="0", seed=seed, n_samples=200_000)
        assert report.g["RR"].within()
        assert report.g["RL"].within()
        assert report.passed

    def test_boson_spin0(self):
        report = run_beamsplitter("boson", spin="0", seed=14, n_samples=200_000)
        assert report.g["RL"].within()
        assert report.g["RR"].within()
        assert report.passed

    def test_spin_half_runs(self):
        for statistics, zero_entry in (("boson", "RR"), ("fermion", "RL")):
            report = run_beamsplitter(
                statistics, spin="half", seed=15, n_samples=200_000
            )
            assert report.g[zero_entry].analytic == pytest.approx(0.0, abs=1e-12)
            assert report.g[zero_entry].within()
            assert report.passed


class TestStreamingMemory:
    def test_peak_does_not_grow_with_sample_count(self, monkeypatch):
        # One worker, so the peak does not depend on how the workers'
        # scratch happens to overlap in time.
        monkeypatch.setenv("PCSFT_THREADS", "1")

        def peak(n):
            run_beamsplitter("boson", "half", seed=16, n_samples=n)  # warm
            tracemalloc.start()
            try:
                run_beamsplitter("boson", "half", seed=16, n_samples=n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(4 * CHUNK_SIZE)
        large = peak(32 * CHUNK_SIZE)
        assert large <= 1.1 * small, (small, large)


class TestFactorization:
    def test_spin_half_g_factorizes_over_space_and_spin(self):
        # Output state = (transformed spatial factor) (x) (spin singlet):
        # each g entry equals the 2x2 spatial tensor average times the
        # squared spin norm (= 1), checked against the 16-dim contraction.
        u = beamsplitter_unitary()
        for statistics in ("boson", "fermion"):
            state, _ = _experiment_input(statistics, "half")
            big = np.kron(u, np.eye(2, dtype=complex))
            out = apply_to_state(UnitaryChannel(u1=big, u2=big), state)

            sign = -1.0 if statistics == "boson" else 1.0
            c = 1.0 / np.sqrt(2.0)
            space = np.array([[0.0, c], [sign * c, 0.0]], dtype=complex)
            space_state = apply_to_state(UnitaryChannel(u1=u, u2=u), BipartiteState(space))
            for x, px in (("R", np.diag([1.0, 0.0])), ("L", np.diag([0.0, 1.0]))):
                for y, py in (("R", np.diag([1.0, 0.0])), ("L", np.diag([0.0, 1.0]))):
                    full = quantum_average_tensor(
                        out,
                        intensity_observable(x, SPIN_HALF, 1).operator,
                        intensity_observable(y, SPIN_HALF, 2).operator,
                    )
                    spatial = quantum_average_tensor(
                        space_state, px.astype(complex), py.astype(complex)
                    )
                    assert abs(full - spatial * 1.0) <= 1e-10

    def test_epsilon_does_not_move_analytic_g(self):
        u = beamsplitter_unitary()
        out = apply_to_state(UnitaryChannel(u1=u, u2=u), input_state("fermion"))
        f1 = intensity_observable("R", SPIN0, 1)
        f2 = intensity_observable("L", SPIN0, 2)
        base = epsilon_min(out)
        values = [
            analytic_cov(build_covariance(out, base + extra), f1, f2)
            for extra in (0.0, 0.05, 0.3, 1.0)
        ]
        assert np.ptp(values) <= 1e-14
