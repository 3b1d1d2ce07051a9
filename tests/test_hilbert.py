"""Hilbert-space core: states, conjugation conventions, averages."""

import re

import numpy as np
import pytest

from pcsft.channels import Hamiltonian, UnitaryChannel
from pcsft.covariance import BlockCovariance
from pcsft.errors import (
    DimensionError,
    NormalizationError,
    RealityError,
    SelfAdjointnessError,
)
from pcsft.hilbert import (
    SELFADJOINT_TOL,
    BipartiteState,
    as_real,
    marginal_average,
    quantum_average_tensor,
    quantum_average_trace,
    require_observable,
    require_selfadjoint,
)
from pcsft.quadratic import QuadraticForm
from conftest import (
    kron_average, rand_complex, rand_selfadjoint, rand_state, rand_unitary,
)

C = 1.0 / np.sqrt(2.0)
SINGLET = np.array([[0.0, C], [-C, 0.0]], dtype=complex)
SYMMETRIC = np.array([[0.0, C], [C, 0.0]], dtype=complex)
PROJ_R = np.diag([1.0, 0.0]).astype(complex)
PROJ_L = np.diag([0.0, 1.0]).astype(complex)


class TestMatricize:
    # A BipartiteState is its state's coefficient matrix, checked.
    def test_product_state(self):
        state = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(state.amplitudes, [[1, 0], [0, 0]])
        assert (state.d1, state.d2) == (2, 2)

    def test_symmetric_pair_state(self):
        state = BipartiteState(SYMMETRIC)
        np.testing.assert_allclose(state.amplitudes, SYMMETRIC)

    def test_antisymmetric_pair_state(self):
        state = BipartiteState(SINGLET)
        np.testing.assert_allclose(state.amplitudes, SINGLET)

    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(NormalizationError):
            BipartiteState(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            BipartiteState(np.zeros((0, 2)))

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionError, match=r"amplitudes must be a 2-d matrix, got shape \(2,\)"):
            BipartiteState(np.array([1.0, 0.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="amplitudes contains non-finite entries"):
            BipartiteState(np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_stored_matrix_is_readonly(self):
        state = BipartiteState(SINGLET)
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0


class TestConjugationOperations:
    """In the fixed real basis the conjugate operator Ā is entrywise
    conjugation of the matrix."""

    def test_conjugate_bilinear_form_law(self):
        # <Ā u, v> = <v̄, A ū> with <x, y> = sum x conj(y).
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = rand_complex(rng, 4, 4)
            u = rand_complex(rng, 4)
            v = rand_complex(rng, 4)
            lhs = np.vdot(v, np.conj(a) @ u)
            rhs = np.vdot(a @ np.conj(u), np.conj(v))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_quadratic_form_of_conjugate_operator(self):
        # f_Ā(phi) = f_A(conj phi)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rand_selfadjoint(rng, 3)
            phi = rand_complex(rng, 3)
            lhs = np.vdot(phi, np.conj(a) @ phi)
            rhs = np.vdot(np.conj(phi), a @ np.conj(phi))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestQuantumAverages:
    def test_singlet_same_port(self):
        state = BipartiteState(SINGLET)
        assert abs(quantum_average_tensor(state, PROJ_R, PROJ_R)) < 1e-15
        assert abs(quantum_average_trace(state, PROJ_R, PROJ_R)) < 1e-15

    def test_singlet_opposite_ports(self):
        state = BipartiteState(SINGLET)
        assert quantum_average_tensor(state, PROJ_R, PROJ_L) == pytest.approx(0.5)
        assert quantum_average_trace(state, PROJ_R, PROJ_L) == pytest.approx(0.5)

    def test_product_eigenstate(self):
        state = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert quantum_average_tensor(state, PROJ_R, PROJ_R) == pytest.approx(1.0)

    def test_identity_pair_gives_norm(self):
        rng = np.random.default_rng(14)
        state = rand_state(rng, 3, 3)
        eye = np.eye(3)
        assert quantum_average_trace(state, eye, eye) == pytest.approx(1.0, abs=1e-12)

    def test_trace_equals_tensor_on_rectangular_case(self):
        rng = np.random.default_rng(15)
        state = rand_state(rng, 3, 4)
        a1 = rand_selfadjoint(rng, 3)
        a2 = rand_selfadjoint(rng, 4)
        t = quantum_average_tensor(state, a1, a2)
        assert quantum_average_trace(state, a1, a2) == pytest.approx(t, abs=1e-12)
        # third route: explicit Kronecker action
        assert kron_average(state.amplitudes, a1, a2) == pytest.approx(t, abs=1e-12)

    def test_trace_equals_tensor_sweep(self):
        rng = np.random.default_rng(16)
        for d1, d2 in [(2, 2), (2, 3), (3, 3), (4, 4)]:
            for _ in range(50):
                state = rand_state(rng, d1, d2)
                a1 = rand_selfadjoint(rng, d1)
                a2 = rand_selfadjoint(rng, d2)
                lhs = quantum_average_trace(state, a1, a2)
                rhs = quantum_average_tensor(state, a1, a2)
                assert abs(lhs - rhs) <= 1e-10

    def test_rejects_non_selfadjoint(self):
        state = BipartiteState(SINGLET)
        with pytest.raises(SelfAdjointnessError):
            quantum_average_tensor(state, np.array([[0.0, 1.0], [0.0, 0.0]]), PROJ_R)

    def test_conjugated_trace_identity(self):
        # Tr[conj(rho) conj(A)] = Tr[rho A] for Hermitian rho and self-adjoint A.
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rand_complex(rng, 4, 4)
            rho = m @ m.conj().T
            rho = rho / np.trace(rho).real
            a = rand_selfadjoint(rng, 4)
            lhs = np.trace(np.conj(rho) @ np.conj(a))
            rhs = np.trace(rho @ a)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestRequireObservable:
    """The one observable check of the averages and verify-identity."""

    @pytest.mark.parametrize(
        "a, error, text",
        [
            (np.eye(3), DimensionError, "A1 has shape (3, 3), state needs (2, 2)"),
            (np.ones((2, 3)), SelfAdjointnessError, "A1 is not square"),
            (np.triu(np.ones((2, 2))), SelfAdjointnessError, "A1 is not self-adjoint"),
            # Beside entries of 1e-50, a defect of 1e-13 is the whole matrix,
            # though below 1e-12 in absolute terms.
            (np.array([[1e-50, 1e-13j], [0.0, 1e-50]]), SelfAdjointnessError,
             "A1 is not self-adjoint: max |A - A†| = 1.000e-13 > 1.000e-25"),
            # 1.5e308 (1 + i) is finite but its modulus is not: the bound reads
            # the real and imaginary parts apart, so it stays finite.
            (np.array([[0.0, 1.5e308 * (1 + 1j)], [0.0, 0.0]]), SelfAdjointnessError,
             "A1 is not self-adjoint: max |A - A†| = inf > 1.500e+296"),
            (np.array([[1.0, 2.0], [2.0, -1.0]]), None, None),
        ],
        ids=["wrong-size", "non-square", "not-selfadjoint", "tiny-entries-defect",
             "overflowing-modulus", "valid"],
    )
    def test_checks_a_side_observable(self, a, error, text):
        if error is not None:
            with pytest.raises(error, match=re.escape(text)):
                require_observable(a, 2, "A1")
            return
        out = require_observable(a, 2, "A1")
        assert out.dtype == complex
        np.testing.assert_array_equal(out, a)


class TestMarginalAverage:
    def test_singlet_marginal_is_half(self):
        state = BipartiteState(SINGLET)
        assert marginal_average(state, PROJ_R, 1) == pytest.approx(0.5)

    def test_product_state_marginal(self):
        state = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert marginal_average(state, PROJ_R, 1) == pytest.approx(1.0)

    def test_identity_on_side_two(self):
        rng = np.random.default_rng(18)
        state = rand_state(rng, 2, 3)
        assert marginal_average(state, np.eye(3), 2) == pytest.approx(1.0, abs=1e-12)

    def test_equals_tensor_average_with_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            state = rand_state(rng, 3, 2)
            a1 = rand_selfadjoint(rng, 3)
            a2 = rand_selfadjoint(rng, 2)
            assert marginal_average(state, a1, 1) == pytest.approx(
                quantum_average_tensor(state, a1, np.eye(2)), abs=1e-12
            )
            assert marginal_average(state, a2, 2) == pytest.approx(
                quantum_average_tensor(state, np.eye(3), a2), abs=1e-12
            )

    def test_dimension_mismatch(self):
        state = BipartiteState(SINGLET)
        with pytest.raises(DimensionError):
            marginal_average(state, np.eye(3), 1)

    def test_unknown_side(self):
        with pytest.raises(ValueError, match="side must be 1 or 2, got 3"):
            marginal_average(BipartiteState(SINGLET), PROJ_R, side=3)


def _value_type_args(name: str, rng: np.random.Generator) -> tuple[type, dict]:
    """A value type and constructor arguments whose arrays the caller owns."""
    psi = np.array(rand_state(rng, 2, 3).amplitudes)  # writeable
    return {
        "BipartiteState": (BipartiteState, {"amplitudes": psi}),
        "BlockCovariance": (BlockCovariance, {"d12": psi, "epsilon": 0.3}),
        "UnitaryChannel": (
            UnitaryChannel, {"u1": rand_unitary(rng, 2), "u2": rand_unitary(rng, 3)},
        ),
        "Hamiltonian": (
            Hamiltonian, {"h1": rand_selfadjoint(rng, 2), "h2": rand_selfadjoint(rng, 3)},
        ),
        "QuadraticForm": (QuadraticForm, {"operator": rand_selfadjoint(rng, 3), "side": 2}),
    }[name]


class TestStoredReadOnly:
    """Every value type stores read-only copies of its arrays."""

    @pytest.mark.parametrize(
        "name",
        ["BipartiteState", "BlockCovariance", "UnitaryChannel", "Hamiltonian",
         "QuadraticForm"],
    )
    def test_caller_arrays_are_copied_and_frozen(self, name):
        cls, kwargs = _value_type_args(name, np.random.default_rng(22))
        obj = cls(**kwargs)
        stored = {k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)}
        assert stored
        before = {k: v.copy() for k, v in stored.items()}
        for value in kwargs.values():
            if isinstance(value, np.ndarray):
                value[...] = 5.0
        for key, value in stored.items():
            assert not value.flags.writeable, key
            assert np.array_equal(vars(obj)[key], before[key]), key


class TestAsReal:
    def test_accepts_tiny_imaginary(self):
        assert as_real(1.0 + 1e-14j, 1.0) == 1.0

    def test_rejects_large_imaginary(self):
        with pytest.raises(RealityError):
            as_real(1.0 + 1e-3j, 1.0)

    def test_relative_scaling(self):
        # tolerance scales with the scale argument above 1, not with the
        # value: 1e-7 is below 1e-12 * 1e6 even on a value near zero, 1e-11
        # above 1e-12 * max(1, 1e-6), and a large value widens nothing
        assert as_real(-2e-5 + 1e-7j, 1e6) == -2e-5
        with pytest.raises(RealityError):
            as_real(1e-6 + 1e-11j, 1e-6)
        with pytest.raises(RealityError):
            as_real(1e6 + 1e-7j, 1.0)


def exactly_hermitian(rng, d: int, peak: float) -> np.ndarray:
    """A random d x d matrix equal to its adjoint entry for entry, with
    every real and imaginary part in [-peak, peak]."""
    m = rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))
    upper = np.triu(m, 1) * peak
    return upper + upper.conj().T + np.diag(m.diagonal().real * peak)


def with_defect(peak: float) -> np.ndarray:
    """A 3 x 3 operator whose entries reach ``peak``, with self-adjointness
    defects of 9e-13 off the diagonal and 8e-13 on it, both accepted."""
    return np.array(
        [[peak + 4e-13j, peak + 9e-13j, 0.5], [peak, -peak, 1j], [0.5, -1j, 0.0]]
    )


class TestRequireSelfadjoint:
    """require_selfadjoint returns the one matrix every use of an accepted
    observable reads: its Hermitian part."""

    @pytest.mark.parametrize("peak", [1.0, 1e6, 1.7e308])
    def test_exactly_hermitian_input_is_kept_bit_for_bit(self, peak):
        rng = np.random.default_rng(23)
        for d in (1, 2, 3, 4):
            for _ in range(20):
                a = exactly_hermitian(rng, d, peak)
                assert require_selfadjoint(a).tobytes() == a.tobytes()

    def test_subnormal_and_signed_zero_entries_are_kept(self):
        # Halving 5e-324 rounds it to zero, and adding a -0.0 to itself
        # conjugated gives +0.0: neither may reach an exactly Hermitian input.
        tiny = 5e-324
        a = np.array([[complex(tiny, -0.0), complex(-0.0, tiny)],
                      [complex(-0.0, -tiny), complex(-0.0, 0.0)]])
        assert require_selfadjoint(a).tobytes() == a.tobytes()

    @pytest.mark.parametrize("peak", [1.0, 1e6, 1.7e308])
    def test_defect_within_tolerance_gives_the_hermitian_part(self, peak):
        a = with_defect(peak)
        out = require_selfadjoint(a)
        assert np.array_equal(out, out.conj().T)
        assert np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))
        # The Hermitian part lies half the 9e-13 defect from A.
        assert float(np.max(np.abs(out - a))) <= 0.5 * SELFADJOINT_TOL

    def test_one_ulp_of_rounding_at_1e50_is_accepted(self):
        # A defect of about 5e33 is one ulp of 3e49: rounding of the input,
        # far below 1e-12 of the entries.
        off = 3e49 * (1 + np.finfo(float).eps)
        a = np.array([[1e50, 3e49], [off, -1e50]])
        out = require_selfadjoint(a)
        assert np.array_equal(out, out.conj().T)

    def test_forms_and_hamiltonians_store_that_matrix(self):
        a = with_defect(1.0)
        np.testing.assert_array_equal(require_selfadjoint(a), 0.5 * (a + a.conj().T))
        expected = require_selfadjoint(a).tobytes()
        assert require_observable(a, 3, "A1").tobytes() == expected
        assert QuadraticForm(operator=a, side=2).operator.tobytes() == expected
        assert Hamiltonian(h1=a, h2=np.eye(2)).h1.tobytes() == expected
