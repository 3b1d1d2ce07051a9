"""Command-line interface: exit codes, determinism, file handling."""

import argparse
import ast
import builtins
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcsft.hilbert import BipartiteState
from pcsft import serialize
from pcsft import __version__
from pcsft.cli import build_parser, main
from pcsft.experiments import ExperimentReport
from pcsft.quadratic import MIN_SAMPLES
from pcsft.sampler import MAX_SAMPLES, PRNG_ID, SEED_BOUND
from conftest import kron_average, rand_selfadjoint, rand_state, states_equal_up_to_phase

C = 1.0 / np.sqrt(2.0)
SINGLET = np.array([[0.0, C], [-C, 0.0]])
PROJ_R = np.diag([1.0, 0.0])
PROJ_L = np.diag([0.0, 1.0])


def write_state(path, amplitudes):
    state = BipartiteState(np.asarray(amplitudes, dtype=complex))
    path.write_text(
        serialize.dumps_json(serialize.state_to_json(state)), encoding="utf-8"
    )
    return path


def write_operator(path, a):
    path.write_text(
        serialize.dumps_json(serialize.operator_to_json(np.asarray(a, dtype=complex))),
        encoding="utf-8",
    )
    return path


def write_pair(path, first, second, a, b, **extra):
    """A channel ({U1, U2}) or Hamiltonian ({H1, H2}, hbar 1) document."""
    doc = {
        first: serialize.operator_to_json(np.asarray(a, dtype=complex)),
        second: serialize.operator_to_json(np.asarray(b, dtype=complex)),
        **extra,
    }
    path.write_text(serialize.dumps_json(doc), encoding="utf-8")
    return path


@pytest.fixture
def singlet_file(tmp_path):
    return write_state(tmp_path / "state.json", SINGLET)


def fail_every_gate(monkeypatch):
    """Make the CLI's beam-splitter runs report every g entry 10 standard
    errors off its analytic value, so the report fails its gate."""
    import pcsft.cli as cli_module

    real_run = cli_module.run_beamsplitter

    def failing_run(*args, **kwargs):
        report = real_run(*args, **kwargs)
        g = {
            key: replace(est, value=est.analytic + 10 * est.std_error)
            for key, est in report.g.items()
        }
        return replace(report, g=g)

    monkeypatch.setattr(cli_module, "run_beamsplitter", failing_run)


class TestVerifyIdentity:
    def test_singlet_pass(self, tmp_path, singlet_file, capsys):
        a1 = write_operator(tmp_path / "a1.json", PROJ_R)
        a2 = write_operator(tmp_path / "a2.json", PROJ_L)
        code = main(
            [
                "verify-identity",
                str(singlet_file),
                str(a1),
                str(a2),
                "--seed",
                "5",
                "--samples",
                "50000",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["pass"] is True
        assert out["tensor"] == pytest.approx(0.5)
        assert out["trace"] == pytest.approx(0.5)
        assert out["analytic_cov"] == pytest.approx(0.5)
        assert abs(out["mc"]["value"] - 0.5) <= 5 * out["mc"]["std_error"]
        assert (out["mc"]["seed"], out["mc"]["prng_id"]) == (5, PRNG_ID)

    def test_zero_operators_report_exact_zeros(self, tmp_path, singlet_file, capsys):
        # Zero observables have no readout rows, so the sampler draws
        # through an empty readout, and the report is the one an
        # intensity pass with zero weights gave: every value an exact,
        # unsigned zero.
        zero = write_operator(tmp_path / "zero.json", np.zeros((2, 2)))
        argv = ["verify-identity", str(singlet_file), str(zero), str(zero), "--samples=2000"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "-0.0" not in text
        payload = json.loads(text)
        del payload["inputs"], payload["epsilon"]
        assert payload == {
            "analytic_cov": 0.0,
            "checks": {"cov_vs_tensor": True, "mc_within_5_se": True, "trace_vs_tensor": True},
            "mc": {"analytic": 0.0, "n": 2000, "prng_id": PRNG_ID, "seed": 0,
                   "std_error": 0.0, "value": 0.0},
            "n_samples": 2000,
            "pass": True,
            "prng_id": PRNG_ID,
            "seed": 0,
            "tensor": 0.0,
            "trace": 0.0,
            "version": __version__,
        }

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        a1 = write_operator(tmp_path / "a1.json", PROJ_R)
        code = main(["verify-identity", str(bad), str(a1), str(a1)])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_wrong_field_named(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps({"d1": 2, "d2": 2, "amplitudes": [[1, 0], [0, 0]]}),
            encoding="utf-8",
        )
        a1 = write_operator(tmp_path / "a1.json", PROJ_R)
        code = main(["verify-identity", str(state), str(a1), str(a1)])
        assert code == 2
        assert "amplitudes" in capsys.readouterr().err

    def test_random_fixture_matches_tensor_oracle(self, tmp_path, capsys):
        # an arbitrary complex fixture through the full CLI path must land
        # on the same value as the in-process tensor contraction
        from pcsft.hilbert import quantum_average_tensor

        rng = np.random.default_rng(120)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        state = BipartiteState(g / np.linalg.norm(g))
        m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a1 = 0.5 * (m1 + m1.conj().T)
        a2 = 0.5 * (m2 + m2.conj().T)
        oracle = quantum_average_tensor(state, a1, a2)

        state_path = tmp_path / "state.json"
        state_path.write_text(
            serialize.dumps_json(serialize.state_to_json(state)), encoding="utf-8"
        )
        code = main(
            [
                "verify-identity",
                str(state_path),
                str(write_operator(tmp_path / "a1.json", a1)),
                str(write_operator(tmp_path / "a2.json", a2)),
                "--samples",
                "50000",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tensor"] == pytest.approx(oracle, abs=1e-12)
        assert out["trace"] == pytest.approx(oracle, abs=1e-12)
        assert out["analytic_cov"] == pytest.approx(oracle, abs=1e-12)

    def test_nearly_hermitian_operator_with_large_epsilon(self, tmp_path, singlet_file, capsys):
        # A1 passes the self-adjointness check with stray imaginary parts
        # of 4e-13 on its diagonal.  Every use of A1 reads its Hermitian
        # part, which drops them, so at epsilon 1e3 they cannot reach the
        # Monte Carlo centre Tr[D11 A1] as an imaginary part near 1e-9.
        a1 = np.array([[1.0 + 4e-13j, 0.3], [0.3, -1.0 + 4e-13j]])
        code = main(
            [
                "verify-identity",
                str(singlet_file),
                str(write_operator(tmp_path / "a1.json", a1)),
                str(write_operator(tmp_path / "a2.json", PROJ_L)),
                "--epsilon=1e3",
                "--samples=20000",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["epsilon"] == 1e3
        assert out["pass"] is True

    @staticmethod
    def assert_identities_hold(tmp_path, capsys, amplitudes, a1, a2):
        argv = [
            "verify-identity",
            str(write_state(tmp_path / "state.json", amplitudes)),
            str(write_operator(tmp_path / "a1.json", a1)),
            str(write_operator(tmp_path / "a2.json", a2)),
            "--samples=20000",
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        out = json.loads(captured.out)
        assert isinstance(out["tensor"], float) and isinstance(out["trace"], float)
        assert out["checks"]["trace_vs_tensor"] is True
        assert out["checks"]["cov_vs_tensor"] is True
        assert out["pass"] is True

    def test_cancelling_average_of_large_observables(self, tmp_path, capsys):
        # Exactly Hermitian observables with entries around 1e6, A2 shifted
        # by a real multiple of I so that <A1 (x) A2> nearly cancels.  The
        # averages' imaginary rounding, about 3e-5, is small beside
        # max |A1| · max |A2| = 1e12 though not beside the average, and
        # must not reject the input.
        rng = np.random.default_rng(0)
        psi = rand_state(rng, 3, 3).amplitudes
        a1, a2 = 1e6 * rand_selfadjoint(rng, 3), 1e6 * rand_selfadjoint(rng, 3)
        shift = kron_average(psi, a1, a2).real / kron_average(psi, a1, np.eye(3)).real
        self.assert_identities_hold(tmp_path, capsys, psi, a1, a2 - shift * np.eye(3))

    def test_accepted_defect_meets_a_large_observable(self, tmp_path, capsys):
        # A1's 9e-13 self-adjointness defect is accepted; the averages read
        # its Hermitian part, so A2's 1e10 cannot turn the defect into an
        # imaginary part of the average.
        a1 = np.array([[0.0, 1j], [-1j + 9e-13j, 0.0]])
        a2 = np.diag([1e10, 0.0])
        self.assert_identities_hold(tmp_path, capsys, [[C, 0.0], [C, 0.0]], a1, a2)

    @staticmethod
    def large_case(tmp_path, scale=1e3):
        # Dense observables with entries around ``scale`` on a 3 x 4 state.
        rng = np.random.default_rng(121)
        state = write_state(tmp_path / "state.json", rand_state(rng, 3, 4).amplitudes)
        a1, a2 = scale * rand_selfadjoint(rng, 3), scale * rand_selfadjoint(rng, 4)
        files = [str(write_operator(tmp_path / f"a{i}.json", a)) for i, a in ((1, a1), (2, a2))]
        return ["verify-identity", str(state), *files, "--samples=20000"], a1, a2

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_large_observables_pass(self, tmp_path, capsys, scale):
        # The averages reach 1e5 to 1e11, and the trace, tensor and
        # covariance routes round apart by about 1e-15 of them, above 1e-10
        # in absolute terms; the checks scale their tolerance with
        # max |A1| · max |A2|.
        argv, _, _ = self.large_case(tmp_path, scale)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @staticmethod
    def scaled_run(tmp_path, singlet_file, capsys, scale):
        """verify-identity on the singlet with A1 = A2 = scale · M."""
        a = write_operator(tmp_path / "a.json", scale * np.array([[1.0, 0.3], [0.3, -0.5]]))
        code = main(["verify-identity", str(singlet_file), str(a), str(a), "--samples=1000"])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("scale", [1e-50, 1e50])
    def test_scale_range_edges_scale_the_unit_run(self, tmp_path, singlet_file, capsys, scale):
        code, captured = self.scaled_run(tmp_path, singlet_file, capsys, scale)
        _, unit = self.scaled_run(tmp_path, singlet_file, capsys, 1.0)
        assert code == 0
        mc, unit_mc = json.loads(captured.out)["mc"], json.loads(unit.out)["mc"]
        for key in ("analytic", "value", "std_error"):
            assert mc[key] == pytest.approx(scale**2 * unit_mc[key], rel=1e-12)

    def test_tiny_observables_exit_2_naming_the_field(self, tmp_path, singlet_file, capsys):
        # Below 1e-50 the fourth moments behind the standard error lose
        # digits, then underflow: at 1e-100 this correct run reported
        # std_error 0.0 and exited 1.
        code, captured = self.scaled_run(tmp_path, singlet_file, capsys, 1e-100)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: field 'a1': ")

    def test_tiny_observable_with_a_large_defect_exits_2(self, tmp_path, capsys):
        # A1's defect of 1e-13 is below 1e-12 but far above its entries of
        # 1e-50: accepted, its Hermitian part would carry the average.
        state = write_state(tmp_path / "state.json", [[C, 0.0], [1j * C, 0.0]])
        a1 = write_operator(tmp_path / "a1.json", [[1e-50, 1e-13j], [0.0, 1e-50]])
        a2 = write_operator(tmp_path / "a2.json", np.diag([1e-50, 0.0]))
        code = main(["verify-identity", str(state), str(a1), str(a2), "--samples=1000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: field 'a1': A1 is not self-adjoint: ")

    @staticmethod
    def small_case(tmp_path):
        # A1 = A2 = diag(1e-6, -1e-6) on diag(c, c): the average is 1e-12.
        a = np.diag([1e-6, -1e-6])
        state = write_state(tmp_path / "state.json", np.diag([C, C]))
        files = [str(write_operator(tmp_path / f"a{i}.json", a)) for i in (1, 2)]
        return ["verify-identity", str(state), *files, "--samples=20000"], a, a

    @pytest.mark.parametrize("case", ["large_case", "small_case"])
    def test_trace_off_by_ten_tolerances_fails(self, tmp_path, monkeypatch, capsys, case):
        # The tolerance scales with max |A1| · max |A2| both ways: a floor
        # of 1e-10 would hide the small case's offset of 1e-21.
        import pcsft.cli as cli

        argv, a1, a2 = getattr(self, case)(tmp_path)
        tol = cli.IDENTITY_TOL * float(np.max(np.abs(a1))) * float(np.max(np.abs(a2)))
        assert tol > 10 * cli.IDENTITY_TOL if case == "large_case" else 10 * tol < cli.IDENTITY_TOL
        trace = cli.quantum_average_trace
        monkeypatch.setattr(cli, "quantum_average_trace", lambda *args: trace(*args) + 10 * tol)
        assert main(argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks == {"cov_vs_tensor": True, "mc_within_5_se": True, "trace_vs_tensor": False}


class TestExperimentCommand:
    def test_fermion_default_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "experiment",
                "--experiment",
                "beamsplitter",
                "--statistics",
                "fermion",
                "--spin",
                "0",
                "--seed",
                "7",
                "--samples",
                "100000",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["g"]["RR"]["analytic"] == pytest.approx(0.0, abs=1e-12)
        assert report["g"]["RL"]["analytic"] == pytest.approx(0.5, abs=1e-12)

    def test_boson_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "experiment",
                "--experiment",
                "beamsplitter",
                "--statistics",
                "boson",
                "--seed",
                "8",
                "--samples",
                "100000",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["g"]["RL"]["analytic"] == pytest.approx(0.0, abs=1e-15)

    def test_reruns_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                [
                    "experiment",
                    "--experiment",
                    "beamsplitter",
                    "--statistics",
                    "fermion",
                    "--seed",
                    "9",
                    "--samples",
                    "20000",
                    "--output",
                    str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "experiment",
                "--experiment",
                "beamsplitter",
                "--statistics",
                "fermion",
                "--samples",
                "20000",
                "--format",
                "csv",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("x,y,analytic")
        assert len(lines) == 5

    def test_invalid_enum_exits_2(self, capsys):
        for experiment, statistics in (("beamsplitter", "anyon"), ("foo", "boson")):
            argv = ["experiment", "--experiment", experiment, "--statistics", statistics]
            assert main(argv) == 2

    @pytest.mark.parametrize("epsilon", ["abc", "nan", "inf", ""])
    def test_invalid_epsilon_exits_2(self, epsilon, capsys):
        code = main(
            [
                "experiment",
                "--experiment",
                "beamsplitter",
                "--statistics",
                "fermion",
                "--samples",
                "2000",
                "--epsilon",
                epsilon,
            ]
        )
        assert code == 2
        assert "'epsilon'" in capsys.readouterr().err

    def test_statistical_failure_exits_1(self, monkeypatch, capsys):
        # exercise the exit-code mapping by forcing a failed report
        fail_every_gate(monkeypatch)
        code = main(
            [
                "experiment",
                "--experiment",
                "beamsplitter",
                "--statistics",
                "fermion",
                "--samples",
                "2000",
            ]
        )
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("exc", [OSError("disk gone"), ValueError("no such value")])
    def test_bare_error_of_a_subcommand_exits_2(self, monkeypatch, capsys, exc):
        # An OSError or ValueError that no field wrapper named still
        # rejects the input: one error line, exit 2.
        import pcsft.cli as cli_module

        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "run_beamsplitter", raising)
        code = main(["experiment", "--experiment=beamsplitter", "--statistics=boson"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {exc}\n")


class TestClassifyCommand:
    def test_bosonic_fixture(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", [[0.0, C], [C, 0.0]])
        code = main(["classify", str(state)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tag"] == "Bosonic"
        assert out["residual"] <= 1e-12

    def test_fermionic_fixture(self, tmp_path, capsys, singlet_file):
        code = main(["classify", str(singlet_file)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tag"] == "Fermionic"

    def test_generic_state_is_none(self, tmp_path, capsys):
        rng = np.random.default_rng(110)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        state = write_state(tmp_path / "state.json", g / np.linalg.norm(g))
        code = main(["classify", str(state), "--tol", "1e-10"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tag"] == "None"
        assert out["residual"] > 1e-10

    def test_non_square_exits_2(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        code = main(["classify", str(state)])
        assert code == 2
        assert "field 'state': symmetry classification needs d1 = d2" in capsys.readouterr().err

    def test_boolean_amplitude_exits_2(self, tmp_path, capsys):
        # JSON true is not the number 1: the entry is named, nothing runs.
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps(
                {"d1": 1, "d2": 1, "amplitudes": [[[True, 0.0]]]}
            ),
            encoding="utf-8",
        )
        code = main(["classify", str(state)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "state.amplitudes[0][0]" in captured.err

    def test_unnormalized_state_names_field_not_python_api(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps({"d1": 2, "d2": 2, "amplitudes": [[[1.0, 0.0]] * 2] * 2}),
            encoding="utf-8",
        )
        code = main(["classify", str(state)])
        err = capsys.readouterr().err
        assert code == 2
        assert "field 'state.amplitudes'" in err
        assert "squared norm 4.0" in err
        assert "matricize" not in err


class TestPropagateCommand:
    def test_time_zero_identity(self, tmp_path, singlet_file, capsys):
        ham = write_pair(
            tmp_path / "h.json", "H1", "H2", np.diag([1.0, -1.0]), np.diag([1.0, -1.0])
        )
        out_state = tmp_path / "out_state.json"
        out_cov = tmp_path / "out_cov.json"
        code = main(
            [
                "propagate",
                str(singlet_file),
                str(ham),
                "--t",
                "0.0",
                "--output-state",
                str(out_state),
                "--output-covariance",
                str(out_cov),
            ]
        )
        assert code == 0
        state = serialize.state_from_json(json.loads(out_state.read_text()))
        np.testing.assert_allclose(state.amplitudes, SINGLET, atol=1e-12)
        cov = json.loads(out_cov.read_text())
        assert cov["epsilon"] == pytest.approx((np.sqrt(2) - 1) / 2 + 0.05)

    def test_interaction_hamiltonian_exits_2(self, tmp_path, singlet_file, capsys):
        ham = write_pair(
            tmp_path / "h.json",
            "H1",
            "H2",
            np.eye(2),
            np.eye(2),
            interaction=serialize.operator_to_json(np.eye(4)),
        )
        code = main(
            [
                "propagate",
                str(singlet_file),
                str(ham),
                "--t",
                "1.0",
                "--output-state",
                str(tmp_path / "s.json"),
                "--output-covariance",
                str(tmp_path / "c.json"),
            ]
        )
        assert code == 2
        assert "interaction" in capsys.readouterr().err


class TestChannelCommand:
    def test_beamsplitter_preset_on_fermion(self, tmp_path, singlet_file, capsys):
        out_state = tmp_path / "out_state.json"
        out_cov = tmp_path / "out_cov.json"
        code = main(
            [
                "channel",
                str(singlet_file),
                "beamsplitter5050",
                "--output-state",
                str(out_state),
                "--output-covariance",
                str(out_cov),
            ]
        )
        assert code == 0
        state = serialize.state_from_json(json.loads(out_state.read_text()))
        assert states_equal_up_to_phase(state.amplitudes, SINGLET, tol=1e-12)

    @pytest.mark.parametrize("amplitudes", [np.eye(2, 3) / np.sqrt(2), np.eye(3) / np.sqrt(3)],
                             ids=["2x3", "3x3"])
    def test_beamsplitter_preset_needs_equal_even_dimensions(self, tmp_path, capsys, amplitudes):
        state = write_state(tmp_path / "state.json", amplitudes)
        outputs = [tmp_path / "out_state.json", tmp_path / "out_cov.json"]
        code = main(["channel", str(state), "beamsplitter5050",
                     f"--output-state={outputs[0]}", f"--output-covariance={outputs[1]}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: field 'channel': beamsplitter5050 needs equal even dimensions\n"
        assert captured.out == ""
        assert not any(path.exists() for path in outputs)

    def test_epsilon_printed_is_the_covariance_epsilon(self, tmp_path, capsys):
        # epsilon_min = 0 for a product state; -5e-13 is within the
        # 1e-12 slack of build_covariance, which uses 0.0, and -0.0 prints
        # 0.0 too, on stdout, in the covariance file and in verify-identity.
        state = write_state(tmp_path / "state.json", np.diag([1.0, 0.0]))
        a1 = str(write_operator(tmp_path / "a1.json", PROJ_R))
        out_cov = tmp_path / "out_cov.json"
        for epsilon in ("-5e-13", "-0.0"):
            code = main(
                [
                    "channel",
                    str(state),
                    "beamsplitter5050",
                    f"--epsilon={epsilon}",
                    f"--output-state={tmp_path / 'out_state.json'}",
                    f"--output-covariance={out_cov}",
                ]
            )
            assert code == 0
            printed = capsys.readouterr().out
            main(["verify-identity", str(state), a1, a1, f"--epsilon={epsilon}",
                  "--samples=2000"])
            verified = capsys.readouterr().out
            for text in (printed, out_cov.read_text(), verified):
                assert '"epsilon": 0.0' in text, epsilon

    def test_channel_file(self, tmp_path, singlet_file, capsys):
        from pcsft.experiments import beamsplitter_unitary

        u = beamsplitter_unitary()
        ch_path = write_pair(tmp_path / "ch.json", "U1", "U2", u, u)
        code = main(
            [
                "channel",
                str(singlet_file),
                str(ch_path),
                "--output-state",
                str(tmp_path / "s.json"),
                "--output-covariance",
                str(tmp_path / "c.json"),
            ]
        )
        assert code == 0

    def test_norm_lost_within_the_unitarity_tolerance_names_channel(self, tmp_path, capsys):
        # U = (I + c J)^½ at d = 25, J all ones, passes the unitarity check:
        # max |U†U - I| = c = 0.99e-10.  Ψ = v vᵀ with v = ones / 5, an
        # eigenvector of J, goes to (1 + 25 c) Ψ, whose squared norm is off
        # by about 4.95e-9, more than a state's norm tolerance.
        d, c = 25, 0.99e-10
        v = np.ones(d) / 5
        u = np.eye(d) + (np.sqrt(1 + d * c) - 1) * np.outer(v, v)
        state = write_state(tmp_path / "state.json", np.outer(v, v))
        channel = write_pair(tmp_path / "channel.json", "U1", "U2", u, u)
        code = main(["channel", str(state), str(channel),
                     f"--output-state={tmp_path / 'out_state.json'}",
                     f"--output-covariance={tmp_path / 'out_cov.json'}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: field 'channel': ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["channel.json", "state.json"]

    def test_group_law_regression(self, tmp_path, singlet_file, capsys):
        # propagate twice by t then once by 2t; states must agree
        h1, h2 = [[0.0, 1.0], [1.0, 0.0]], np.diag([0.5, -0.5])
        ham = write_pair(tmp_path / "h.json", "H1", "H2", h1, h2)

        def run(src, t, tag):
            out_state = tmp_path / f"state_{tag}.json"
            code = main(
                [
                    "propagate",
                    str(src),
                    str(ham),
                    "--t",
                    str(t),
                    "--output-state",
                    str(out_state),
                    "--output-covariance",
                    str(tmp_path / f"cov_{tag}.json"),
                ]
            )
            assert code == 0
            return out_state

        step1 = run(singlet_file, 0.6, "a")
        step2 = run(step1, 0.6, "b")
        direct = run(singlet_file, 1.2, "c")
        a = serialize.state_from_json(json.loads(step2.read_text())).amplitudes
        b = serialize.state_from_json(json.loads(direct.read_text())).amplitudes
        np.testing.assert_allclose(a, b, atol=1e-10)

    @pytest.mark.parametrize("epsilon", ["abc", "nan", "inf"])
    def test_invalid_epsilon_exits_2(self, tmp_path, singlet_file, epsilon, capsys):
        code = main(
            [
                "channel",
                str(singlet_file),
                "beamsplitter5050",
                "--epsilon",
                epsilon,
                "--output-state",
                str(tmp_path / "out_state.json"),
                "--output-covariance",
                str(tmp_path / "out_cov.json"),
            ]
        )
        assert code == 2
        assert "'epsilon'" in capsys.readouterr().err


class TestNegativeValuesInExponentNotation:
    """argparse reads a separate '-1e3' as a flag, so such a value is
    given in the '--t=-1e3' form (README, "Command line")."""

    @staticmethod
    def outputs(tmp_path):
        return [
            f"--output-state={tmp_path / 'out_state.json'}",
            f"--output-covariance={tmp_path / 'out_cov.json'}",
        ]

    def test_t_runs_in_the_equals_form(self, tmp_path, singlet_file, capsys):
        ham = write_pair(tmp_path / "h.json", "H1", "H2", np.diag([1.0, -1.0]), np.eye(2))
        argv = ["propagate", str(singlet_file), str(ham), *self.outputs(tmp_path)]
        assert main([*argv, "--t=-1e3"]) == 0
        assert json.loads(capsys.readouterr().out)["t"] == -1000.0
        assert main([*argv, "--t", "-1e3"]) == 2
        assert capsys.readouterr().err == "error: argument --t: expected one argument\n"

    def test_epsilon_within_the_slack_below_zero_reports_zero(self, tmp_path, capsys):
        # A product state has epsilon_min 0, and a level in
        # [-EPSILON_SLACK, 0) is used, and reported, as 0.
        state = write_state(tmp_path / "product.json", [[1.0, 0.0], [0.0, 0.0]])
        identity = write_pair(tmp_path / "ch.json", "U1", "U2", np.eye(2), np.eye(2))
        argv = ["channel", str(state), str(identity), *self.outputs(tmp_path)]
        assert main([*argv, "--epsilon=-1e-13"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == 0.0
        assert json.loads((tmp_path / "out_cov.json").read_text())["epsilon"] == 0.0


# Every file operand of every command.
FILE_OPERANDS = [
    ("verify-identity", "state"),
    ("verify-identity", "a1"),
    ("verify-identity", "a2"),
    ("classify", "state"),
    ("channel", "state"),
    ("channel", "channel"),
    ("propagate", "state"),
    ("propagate", "hamiltonian"),
]


class TestInvalidNumbers:
    @pytest.mark.parametrize(
        "command, option, field",
        [
            ("verify-identity", "--samples=0", "samples"),
            ("verify-identity", "--samples=1", "samples"),
            ("experiment", "--samples=1", "samples"),
            ("verify-identity", "--seed=-1", "seed"),
            ("experiment", f"--seed={2**64}", "seed"),
            ("propagate", "--t=nan", "t"),
            ("propagate", "--t=inf", "t"),
            ("propagate", "--t=-inf", "t"),
            ("classify", "--tol=nan", "tol"),
            ("classify", "--tol=0", "tol"),
            ("classify", "--tol=-1e-10", "tol"),
            # Not JSON: the report echoes tol, so an infinite one must not reach it.
            ("classify", "--tol=inf", "tol"),
            ("classify", "--tol=1e400", "tol"),
            ("experiment", "--samples=999", "samples"),
            ("verify-identity", "--samples=999", "samples"),
            # Past the last chunk the stream defines (about 1.18e21 samples).
            ("experiment", f"--samples={10**23}", "samples"),
            ("verify-identity", f"--samples={10**23}", "samples"),
            ("verify-identity", "--epsilon=0.01", "epsilon"),
            ("experiment", "--epsilon=0.01", "epsilon"),
            ("propagate", "--epsilon=0.01", "epsilon"),
            ("channel", "--epsilon=0.01", "epsilon"),
            # Valid, but beyond float64's reach for the factor's residual bound.
            ("experiment", "--epsilon=1e8", "epsilon"),
            ("verify-identity", "--epsilon=1e8", "epsilon"),
            # So large that a trace against D would overflow: the factor's
            # residual check must reject it first.
            ("experiment", "--epsilon=1e300", "epsilon"),
            ("verify-identity", "--epsilon=1e160", "epsilon"),
        ],
    )
    def test_exits_2_naming_the_field(
        self, tmp_path, singlet_file, capsys, command, option, field
    ):
        a1 = str(write_operator(tmp_path / "a1.json", PROJ_R))
        ham = write_pair(tmp_path / "h.json", "H1", "H2", np.eye(2), np.eye(2))
        outputs = [
            "--output-state",
            str(tmp_path / "out_state.json"),
            "--output-covariance",
            str(tmp_path / "out_cov.json"),
        ]
        operands = {
            "verify-identity": [str(singlet_file), a1, a1],
            "experiment": ["--experiment", "beamsplitter", "--statistics", "fermion"],
            "classify": [str(singlet_file)],
            "propagate": [str(singlet_file), str(ham), "--t=1", *outputs],
            "channel": [str(singlet_file), "beamsplitter5050", *outputs],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, *operands, option])
        assert code == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out_state.json").exists()

    @pytest.mark.parametrize("command", ["verify-identity", "propagate", "channel"])
    def test_epsilon_is_checked_before_any_file_is_read(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # Two faults: a missing state file and a bad --epsilon.  Options
        # are checked first, so the message names epsilon.
        monkeypatch.chdir(tmp_path)
        operands = {
            "verify-identity": ["missing.json", "a1.json", "a2.json"],
            "propagate": ["missing.json", "h.json", "--t=1"],
            "channel": ["missing.json", "beamsplitter5050"],
        }[command]
        code = main([command, *operands, "--epsilon=abc"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: field 'epsilon': expected a number or 'auto', got 'abc'\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, operand, document, field",
        [
            ("verify-identity", "a1", serialize.operator_to_json(np.eye(3)), "a1"),
            ("verify-identity", "a2", serialize.operator_to_json(np.eye(3)), "a2"),
            ("verify-identity", "a1", serialize.operator_to_json(np.triu(np.ones((2, 2)))), "a1"),
            ("verify-identity", "a2", serialize.operator_to_json(np.triu(np.ones((2, 2)))), "a2"),
            (
                "classify",
                "state",
                {"d1": 1, "d2": 2, "amplitudes": [[[1e308, 1e308], [0.0, 0.0]]]},
                "state.amplitudes",
            ),
            (
                "verify-identity",
                "a1",
                serialize.operator_to_json(np.array([[1e308, 1e308], [-1e308, 0.0]])),
                "a1",
            ),
            ("verify-identity", "a1", serialize.operator_to_json(1e100 * np.eye(2)), "a1"),
            (
                "verify-identity",
                "a1",
                serialize.operator_to_json(
                    np.array([[0, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0]])
                ),
                "a1",
            ),
            ("verify-identity", "a1", serialize.operator_to_json(1e75 * np.eye(2)), "a1"),
            ("verify-identity", "a2", serialize.operator_to_json(1e75 * np.eye(2)), "a2"),
            (
                "channel",
                "channel",
                {
                    "U1": serialize.operator_to_json(np.full((2, 2), 1e308 + 1e308j)),
                    "U2": serialize.operator_to_json(np.full((2, 2), 1e308 + 1e308j)),
                },
                "channel",
            ),
            (
                "channel",
                "channel",
                {
                    "U1": serialize.operator_to_json(np.eye(3)),
                    "U2": serialize.operator_to_json(np.eye(2)),
                },
                "channel",
            ),
            (
                "propagate",
                "hamiltonian",
                {
                    "H1": serialize.operator_to_json(np.diag([1.0, -1.0])),
                    "H2": serialize.operator_to_json(np.eye(2)),
                    "hbar": 1e-308,
                },
                "t",
            ),
            (
                "propagate",
                "hamiltonian",
                {
                    "H1": serialize.operator_to_json(np.eye(2)),
                    "H2": serialize.operator_to_json(np.eye(2)),
                    "hbar": 10**400,
                },
                "hamiltonian.hbar",
            ),
            (
                "propagate",
                "hamiltonian",
                {
                    "H1": serialize.operator_to_json(np.full((2, 2), 1.7e308)),
                    "H2": serialize.operator_to_json(np.eye(2)),
                },
                "hamiltonian",
            ),
        ],
        ids=[
            "a1-size",
            "a2-size",
            "a1-not-selfadjoint",
            "a2-not-selfadjoint",
            "huge-amplitudes",
            "a1-huge-not-selfadjoint",
            "a1-1e100",
            "a1-huge-selfadjoint",
            "a1-1e75",
            "a2-1e75",
            "channel-huge",
            "channel-size",
            "hbar-tiny",
            "hbar-beyond-float",
            "hamiltonian-huge",
        ],
    )
    def test_bad_operand_exits_2_naming_the_field(
        self, tmp_path, singlet_file, capsys, command, operand, document, field
    ):
        files = {
            "state": singlet_file,
            "a1": write_operator(tmp_path / "a1.json", PROJ_R),
            "a2": write_operator(tmp_path / "a2.json", PROJ_L),
        }
        files[operand] = tmp_path / "bad.json"
        files[operand].write_text(json.dumps(document), encoding="utf-8")
        outputs = [
            f"--output-state={tmp_path / 'out_state.json'}",
            f"--output-covariance={tmp_path / 'out_cov.json'}",
        ]
        argv = {
            "verify-identity": ["state", "a1", "a2"],
            "classify": ["state"],
            "channel": ["state", "channel", *outputs],
            "propagate": ["state", "hamiltonian", "--t=1e10", *outputs],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, *(str(files.get(arg, arg)) for arg in argv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"field '{field}'" in captured.err
        assert not (tmp_path / "out_state.json").exists()

    @staticmethod
    def run_with_file(tmp_path, singlet_file, command, operand, content):
        """main on valid inputs, except that ``operand``'s file holds the
        bytes content(text of its valid document)."""
        files = {
            "state": singlet_file,
            "a1": write_operator(tmp_path / "a1.json", PROJ_R),
            "a2": write_operator(tmp_path / "a2.json", PROJ_L),
            "channel": write_pair(tmp_path / "channel.json", "U1", "U2", np.eye(2), np.eye(2)),
            "hamiltonian": write_pair(tmp_path / "h.json", "H1", "H2", np.eye(2), np.eye(2)),
        }
        path = files[operand]
        path.write_bytes(content(path.read_text(encoding="utf-8")))
        outputs = [
            f"--output-state={tmp_path / 'out_state.json'}",
            f"--output-covariance={tmp_path / 'out_cov.json'}",
        ]
        argv = {
            "verify-identity": ["state", "a1", "a2"],
            "classify": ["state"],
            "channel": ["state", "channel", *outputs],
            "propagate": ["state", "hamiltonian", "--t=1", *outputs],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main([command, *(str(files.get(arg, arg)) for arg in argv)])

    @pytest.mark.parametrize("command, operand", FILE_OPERANDS)
    def test_non_utf8_file_exits_2_naming_the_field(
        self, tmp_path, singlet_file, capsys, command, operand
    ):
        # A valid document saved as UTF-16, so the file starts with the
        # bytes FF FE, which UTF-8 cannot decode.
        code = self.run_with_file(
            tmp_path, singlet_file, command, operand,
            lambda text: b"\xff\xfe" + text.encode("utf-16-le"),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"field '{operand}'" in captured.err
        assert "not UTF-8" in captured.err
        assert not (tmp_path / "out_state.json").exists()

    @pytest.mark.parametrize("command, operand", FILE_OPERANDS)
    @pytest.mark.parametrize(
        "document",
        [
            "[" * 2000 + "]" * 2000,  # nested past the JSON parser's depth limit
            "1" * 4301,  # past Python's 4300-digit limit on integer strings
        ],
        ids=["deep", "long-integer"],
    )
    def test_undecodable_file_exits_2_naming_the_field(
        self, tmp_path, singlet_file, capsys, command, operand, document
    ):
        code = self.run_with_file(
            tmp_path, singlet_file, command, operand, lambda text: document.encode()
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: field '{operand}': ")
        assert not (tmp_path / "out_state.json").exists()
        assert not (tmp_path / "out_cov.json").exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize(
        "command, field",
        [
            ("verify-identity", "output"),
            ("experiment", "output"),
            ("classify", "output"),
            ("propagate", "output_state"),
            ("propagate", "output_covariance"),
            ("channel", "output_state"),
            ("channel", "output_covariance"),
        ],
    )
    def test_exits_2_naming_the_field(
        self, tmp_path, singlet_file, capsys, command, field, target
    ):
        a1 = str(write_operator(tmp_path / "a1.json", PROJ_R))
        ham = str(write_pair(tmp_path / "h.json", "H1", "H2", np.eye(2), np.eye(2)))
        operands = {
            "verify-identity": [str(singlet_file), a1, a1, "--samples=2000"],
            "experiment": ["--experiment", "beamsplitter", "--statistics", "fermion",
                           "--samples=2000"],
            "classify": [str(singlet_file)],
            "propagate": [str(singlet_file), ham, "--t=1"],
            "channel": [str(singlet_file), "beamsplitter5050"],
        }[command]
        paths = {name: tmp_path / f"{name}.json" for name in ("output_state", "output_covariance")}
        paths[field] = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
        names = ["output"] if field == "output" else list(paths)
        code = main([command, *operands, *(f"--{n.replace('_', '-')}={paths[n]}" for n in names)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: field '{field}': ")
        assert str(paths[field]) in captured.err
        # Both outputs are opened before either is written: a failed run
        # leaves no other output behind.
        for name in names:
            if name != field:
                assert not paths[name].exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("spelling", ["out.json", "./out.json"])
    @pytest.mark.parametrize("command", ["propagate", "channel"])
    def test_one_file_for_both_outputs_exits_2(
        self, tmp_path, singlet_file, capsys, monkeypatch, command, spelling, existing
    ):
        # The covariance would overwrite the state: one file named for both
        # outputs, in any spelling, exits 2 naming output_covariance and
        # leaves no file the call created, nor new bytes in an old one.
        ham = str(write_pair(tmp_path / "h.json", "H1", "H2", np.eye(2), np.eye(2)))
        operands = {"propagate": [ham, "--t=1"], "channel": ["beamsplitter5050"]}[command]
        out = tmp_path / "out.json"
        if existing:
            out.write_bytes(b"earlier bytes\n")
        monkeypatch.chdir(tmp_path)
        code = main([command, str(singlet_file), *operands,
                     "--output-state=out.json", f"--output-covariance={spelling}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: field 'output_covariance': ")
        if existing:
            assert out.read_bytes() == b"earlier bytes\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("field", ["output_state", "output_covariance"])
    @pytest.mark.parametrize("command", ["propagate", "channel"])
    def test_dash_is_not_an_output_file(
        self, tmp_path, singlet_file, capsys, monkeypatch, command, field
    ):
        # Their stdout carries the summary, so '-' cannot mean stdout here:
        # it exits 2 naming the field and makes no file, '-' or other.
        ham = str(write_pair(tmp_path / "h.json", "H1", "H2", np.eye(2), np.eye(2)))
        operands = {"propagate": [ham, "--t=1"], "channel": ["beamsplitter5050"]}[command]
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code = main([command, str(singlet_file), *operands,
                     f"--{field.replace('_', '-')}", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: field '{field}': ")
        assert sorted(tmp_path.iterdir()) == before

    def test_existing_output_keeps_its_bytes(self, tmp_path, singlet_file, capsys):
        state_out = tmp_path / "old_state.json"
        state_out.write_bytes(b"earlier bytes\n")
        missing = tmp_path / "missing" / "cov.json"
        code = main(["channel", str(singlet_file), "beamsplitter5050",
                     f"--output-state={state_out}", f"--output-covariance={missing}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: field 'output_covariance': ")
        assert state_out.read_bytes() == b"earlier bytes\n"


# Values an error message could echo, long enough that echoed whole they
# would run past any bound on the message: a list of up to 5000 numbers, a
# list nested up to 300 deep (json and repr stay inside the recursion limit
# under pytest) and a string of up to 10 000 characters.
LONG_VALUES = st.one_of(
    st.integers(1000, 5000).map(lambda n: [0.5] * n),
    st.integers(100, 300).map(lambda n: functools.reduce(lambda v, _: [v], range(n), 0.5)),
    st.integers(1000, 10_000).map(lambda n: "x" * n),
)
# A declared dimension of up to 4000 digits.
HUGE_INTEGERS = st.integers(10**200, 10**4000 - 1)
# Values no amplitude component may take: non-finite, so large that |a|^2
# overflows, beyond the float range, or not a number at all.
BAD_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=1e154, max_value=1.7e308),
    st.integers(min_value=2**1024, max_value=10**400),
    st.booleans(),
    LONG_VALUES,
)
NOT_A_PAIR = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=1),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    LONG_VALUES,
)
NOT_AN_INTEGER = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(), max_size=1),
)
# Text json.dumps cannot write: arrays nested past the JSON parser's depth
# limit, and integers past Python's 4300-digit limit on integer strings.
# Drawn as strings, dump() writes them unquoted.
UNDECODABLE = st.one_of(
    st.integers(2000, 20000).map(lambda n: "[" * n + "]" * n),
    st.integers(4301, 5000).map(lambda n: "9" * n),
)
NOT_A_MATRIX = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.just([]),
    st.lists(st.integers(), min_size=1, max_size=2),
    UNDECODABLE,
    LONG_VALUES,
)


def dump(doc) -> str:
    """json.dumps(doc), with every UNDECODABLE string in it unquoted."""
    return re.sub(r'"(\[{2000,}\]+|\d{4301,})"', r"\1", json.dumps(doc))


def assert_short_message(err: str, path: Path):
    """An error message stays short whatever the document holds: under
    200 characters once the operand's path, which the message may name,
    is left out."""
    assert len(err.replace(str(path), "")) < 200, err[:300]


@st.composite
def malformed_states(draw):
    """A normalized d1 x d2 state document with exactly one fault."""
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    psi /= np.linalg.norm(psi)
    amplitudes = [[[z.real, z.imag] for z in row] for row in psi.tolist()]
    doc = {"d1": d1, "d2": d2, "amplitudes": amplitudes}
    i, j = draw(st.integers(0, d1 - 1)), draw(st.integers(0, d2 - 1))
    fault = draw(
        st.sampled_from(["number", "entry", "scale", "ragged", "dims", "matrix", "document"])
    )
    if fault == "number":
        amplitudes[i][j][draw(st.integers(0, 1))] = draw(BAD_NUMBERS)
    elif fault == "entry":
        amplitudes[i][j] = draw(NOT_A_PAIR)
    elif fault == "scale":  # finite entries, some beyond the float range
        scale = draw(st.floats(1e10, 1e308))
        doc["amplitudes"] = [[[scale * x for x in pair] for pair in row] for row in amplitudes]
    elif fault == "ragged":
        if d2 > 1 and draw(st.booleans()):
            amplitudes[i].pop()
        else:
            amplitudes[i].append([0.0, 0.0])
    elif fault == "dims":
        key = draw(st.sampled_from(["d1", "d2"]))
        wrong = st.integers(-2, 5).filter(lambda v: v != doc[key])
        doc[key] = draw(st.one_of(wrong, NOT_AN_INTEGER, HUGE_INTEGERS))
    elif fault == "matrix":
        doc["amplitudes"] = draw(NOT_A_MATRIX)
    else:
        doc = draw(st.one_of(NOT_A_MATRIX, st.booleans(), st.floats()))
    return doc


class TestStateFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=malformed_states())
    def test_malformed_state_exits_2_naming_a_field(self, tmp_path, capsys, doc):
        path = tmp_path / "state.json"
        path.write_text(dump(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["classify", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "field '" in captured.err
        assert_short_message(captured.err, path)


# Numbers no operator entry may take: non-finite, beyond the float range,
# or not a number at all.
NON_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2**1024, max_value=10**400),
    st.booleans(),
    LONG_VALUES,
)
OPERATOR_FAULTS = (
    "number", "huge", "entry", "perturb", "ragged", "dims", "matrix", "document", "size"
)


@st.composite
def malformed_operators(draw, kind, faults=OPERATOR_FAULTS):
    """A valid 2 x 2 operator document (a random self-adjoint matrix, or a
    random unitary) with exactly one fault; "size" makes it a valid 3 x 3
    one, which does not fit the 2 x 2 state."""
    d = 3 if (fault := draw(st.sampled_from(faults))) == "size" else 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = m + m.conj().T if kind == "selfadjoint" else np.linalg.qr(m)[0]
    doc = serialize.operator_to_json(a)
    entries = doc["entries"]
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if fault == "number":
        entries[i][j][draw(st.integers(0, 1))] = draw(NON_NUMBERS)
    elif fault == "huge":  # unmatched by the mirror entry, so never self-adjoint
        component = 1 if i == j else draw(st.integers(0, 1))
        entries[i][j][component] = draw(st.floats(1e154, 1.7e308))
    elif fault == "entry":
        entries[i][j] = draw(NOT_A_PAIR)
    elif fault == "perturb":
        entries[i][i][1] += 1e-3
    elif fault == "scale":  # the largest entry modulus outside [1e-50, 1e50]
        peak = draw(st.one_of(st.floats(1e51, 1e308), st.floats(1e-300, 1e-51)))
        scale = peak / float(np.max(np.abs(a)))
        doc["entries"] = [[[scale * x for x in pair] for pair in row] for row in entries]
    elif fault == "ragged":
        entries[i].pop()
    elif fault == "dims":
        key = draw(st.sampled_from(["rows", "cols"]))
        wrong = st.integers(-2, 5).filter(lambda v: v != d)
        doc[key] = draw(st.one_of(wrong, NOT_AN_INTEGER, HUGE_INTEGERS))
    elif fault == "matrix":
        doc["entries"] = draw(NOT_A_MATRIX)
    elif fault == "document":
        doc = draw(st.one_of(NOT_A_MATRIX, st.booleans(), st.floats()))
    return doc


@st.composite
def malformed_pairs(draw, first, second, kind):
    """A {first, second} document with one malformed operator, a missing
    key, or no object at all."""
    valid = serialize.operator_to_json(np.eye(2))
    doc = {first: valid, second: valid}
    fault = draw(st.sampled_from(["operator", "missing", "document"]))
    if fault == "operator":
        doc[draw(st.sampled_from([first, second]))] = draw(malformed_operators(kind))
    elif fault == "missing":
        del doc[draw(st.sampled_from([first, second]))]
    else:
        doc = draw(st.one_of(NOT_A_MATRIX, st.booleans(), st.floats()))
    return doc


BAD_HBAR = st.one_of(
    NON_NUMBERS,
    st.floats(max_value=0.0),
    st.sampled_from([None, "1", [1.0], 5e-324]),  # 5e-324: t * E / hbar overflows
)


FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestOperandFuzz:
    """Every malformed operator, channel or Hamiltonian document exits 2
    naming a field, with no output and no warning."""

    def assert_rejected(self, tmp_path, capsys, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(dump(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([arg if arg != "DOC" else str(path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "field '" in captured.err
        assert_short_message(captured.err, path)
        assert not (tmp_path / "out_state.json").exists()

    @FUZZ
    @given(doc=malformed_operators("selfadjoint", OPERATOR_FAULTS + ("scale",)))
    def test_malformed_operator_exits_2_naming_a_field(
        self, tmp_path, singlet_file, capsys, doc
    ):
        a2 = write_operator(tmp_path / "a2.json", PROJ_L)
        argv = ["verify-identity", str(singlet_file), "DOC", str(a2), "--samples=2000"]
        self.assert_rejected(tmp_path, capsys, argv, doc)

    @FUZZ
    @given(doc=malformed_pairs("U1", "U2", "unitary"))
    def test_malformed_channel_exits_2_naming_a_field(
        self, tmp_path, singlet_file, capsys, doc
    ):
        argv = ["channel", str(singlet_file), "DOC", *self.outputs(tmp_path)]
        self.assert_rejected(tmp_path, capsys, argv, doc)

    @FUZZ
    @given(data=st.data())
    def test_malformed_hamiltonian_exits_2_naming_a_field(
        self, tmp_path, singlet_file, capsys, data
    ):
        valid = serialize.operator_to_json(np.eye(2))
        fault = data.draw(st.sampled_from(["pair", "hbar", "interaction"]))
        if fault == "pair":
            doc = data.draw(malformed_pairs("H1", "H2", "selfadjoint"))
        else:
            doc = {"H1": valid, "H2": valid}
            if fault == "hbar":
                doc["hbar"] = data.draw(BAD_HBAR)
            else:
                key = data.draw(st.sampled_from(["H12", "interaction", "coupling"]))
                doc[key] = valid
        argv = ["propagate", str(singlet_file), "DOC", "--t=1", *self.outputs(tmp_path)]
        self.assert_rejected(tmp_path, capsys, argv, doc)

    @staticmethod
    def outputs(tmp_path):
        return [
            f"--output-state={tmp_path / 'out_state.json'}",
            f"--output-covariance={tmp_path / 'out_cov.json'}",
        ]


@st.composite
def admissible_observables(draw):
    """A d1 x d2 state, d1, d2 <= 4, and two exactly Hermitian observables,
    each with its largest entry modulus 10^x for x in [-50, 50] (kept 1e-12
    inside the accepted range, so rounding cannot push it out); A2 is
    sometimes shifted by a real multiple of I so that <A1 (x) A2> nearly
    cancels, and either sometimes carries a self-adjointness defect within
    tolerance, relative to its largest real or imaginary part."""
    d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rand_state(rng, d1, d2).amplitudes
    a1, a2 = rand_selfadjoint(rng, d1), rand_selfadjoint(rng, d2)
    if draw(st.booleans()):
        shift = kron_average(psi, a1, a2).real / kron_average(psi, a1, np.eye(d2)).real
        a2 = a2 - shift * np.eye(d2)
    observables = []
    for a in (a1, a2):
        peak = min(max(10.0 ** draw(st.floats(-50, 50)), 1e-50 * (1 + 1e-12)), 1e50 * (1 - 1e-12))
        if np.any(a):  # a shift cancels a 1 x 1 A2 to zero, itself admissible
            a = a * (peak / np.max(np.abs(a)))
        if draw(st.booleans()):
            i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
            scale = max(np.max(np.abs(a.real)), np.max(np.abs(a.imag)))
            # A - A† holds twice a diagonal entry's imaginary part.
            a[i, j] += draw(st.floats(-1.0, 1.0)) * (4.5e-13 if i == j else 9e-13) * scale * 1j
        observables.append(a)
    return psi, *observables


class TestAdmissibleObservables:
    """The counterpart of TestOperandFuzz: verify-identity never rejects an
    admissible state and observable pair, and both identities hold.  A rare
    5-SE miss of the Monte Carlo check, exit 1, is a correct run."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=admissible_observables())
    def test_identities_hold(self, tmp_path, capsys, case):
        psi, a1, a2 = case
        argv = [
            "verify-identity",
            str(write_state(tmp_path / "state.json", psi)),
            str(write_operator(tmp_path / "a1.json", a1)),
            str(write_operator(tmp_path / "a2.json", a2)),
            "--samples=1000",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        checks = json.loads(captured.out)["checks"]
        assert checks["trace_vs_tensor"] is True
        assert checks["cov_vs_tensor"] is True


def parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999"])

# Per value option, values its rule rejects: unparsable, out of range or
# not finite.
BAD_VALUES = {
    "seed": st.one_of(
        st.text().filter(lambda s: not parses(int, s)),
        st.integers(max_value=-1).map(str),
        st.integers(min_value=SEED_BOUND).map(str),
    ),
    "samples": st.one_of(
        st.text().filter(lambda s: not parses(int, s)),
        st.integers(max_value=MIN_SAMPLES - 1).map(str),
        st.integers(min_value=MAX_SAMPLES + 1).map(str),
    ),
    "epsilon": st.one_of(
        st.text().filter(lambda s: s != "auto" and not parses(float, s)), NON_FINITE
    ),
    "t": st.one_of(st.text().filter(lambda s: not parses(float, s)), NON_FINITE),
    "tol": st.one_of(
        st.text().filter(lambda s: not parses(float, s)),
        NON_FINITE,
        st.floats(max_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
    ),
}

# Text an error message may echo whole: a file name or an unknown argument.
# Any line break in it is escaped, so the error stays one line.
ECHOED = st.text(alphabet="ab\n\r", max_size=3)


def one_line(text: str) -> str:
    return text.replace("\r", "\\r").replace("\n", "\\n")


# Per subcommand: its operands, its required options, its other options
# with an admissible value, and its options with choices.
COMMAND_LINES = {
    "verify-identity": (
        ["state", "a1", "a2"], {}, {"--seed": "7", "--samples": "1000", "--epsilon": "auto"}, {}
    ),
    "experiment": (
        [],
        {"--experiment": "beamsplitter", "--statistics": "boson"},
        {"--seed": "7", "--samples": "1000", "--epsilon": "0.5"},
        {"--experiment": ["beamsplitter"], "--statistics": ["boson", "fermion"],
         "--spin": ["0", "half"], "--format": ["json", "csv"]},
    ),
    "classify": (["state"], {}, {"--tol": "1e-10"}, {}),
    "propagate": (["state", "hamiltonian"], {"--t": "-1.5"}, {"--epsilon": "auto"}, {}),
    "channel": (["state", "channel"], {}, {"--epsilon": "0.5"}, {}),
}


@st.composite
def rejected_command_lines(draw, command, tmp_path):
    """(argv, name): a ``command`` line with exactly one rejected piece, and
    the option, operand or field the error must name.  Every operand names a
    missing file in ``tmp_path``, and every output a file there; file names
    and unknown flags may hold line breaks."""
    names, required, others, choices = COMMAND_LINES[command]
    operands = [str(tmp_path / f"{name}{draw(ECHOED)}.json") for name in names]
    options = {**required, **others}
    if command in ("propagate", "channel"):
        options["--output-state"] = str(tmp_path / "out_state.json")
        options["--output-covariance"] = str(tmp_path / "out_cov.json")
    else:
        options["--output"] = str(tmp_path / "out.json")
    faults = ["value", "unknown flag", "missing operand", "bad command"]
    faults += ["bad choice"] * bool(choices) + ["missing file"] * bool(names)
    fault = draw(st.sampled_from(faults))
    if fault == "missing file":
        expected = f"field '{names[0]}'"  # the first file read
    elif fault == "value":
        field = draw(st.sampled_from([o[2:] for o in options if o[2:] in BAD_VALUES]))
        options[f"--{field}"] = draw(BAD_VALUES[field])
        expected = f"field '{field}'"
    elif fault == "bad choice":
        expected = draw(st.sampled_from(sorted(choices)))
        options[expected] = draw(st.text().filter(lambda s: s not in choices[expected]))
    elif fault == "missing operand":
        dropped = draw(st.sampled_from([*range(len(operands)), *required]))
        if isinstance(dropped, int):
            del operands[dropped]
            expected = names[-1]  # the operands left fill the first names
        else:
            del options[dropped]
            expected = dropped
    pieces = draw(st.permutations(operands + [f"{o}={v}" for o, v in options.items()]))
    if fault == "unknown flag":
        actions = subcommand_parser(command)._actions
        known = [option for action in actions for option in action.option_strings]
        expected = draw(
            st.from_regex(r"--[a-z][a-z\n\r-]{1,12}", fullmatch=True).filter(
                lambda flag: not any(option.startswith(flag) for option in known)
            )
        )
        pieces.insert(draw(st.integers(0, len(pieces))), expected)
    elif fault == "bad command":
        command = draw(
            st.from_regex(r"[a-z][a-z0-9-]{0,15}", fullmatch=True).filter(
                lambda name: name not in COMMAND_LINES
            )
        )
        expected = "command"
    return [command, *pieces], expected


def subcommand_parser(command: str) -> argparse.ArgumentParser:
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices[command]


class TestRejectedCommandLines:
    """Every rejected command line, whether the parser, an option's rule or
    a missing input file rejects it, makes in-process main return 2 after
    one error line on stderr naming what was rejected, and writes no file."""

    @pytest.mark.parametrize("command", list(COMMAND_LINES))
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_exits_2_with_one_line_naming_it(self, tmp_path, capsys, command, data):
        argv, expected = data.draw(rejected_command_lines(command, tmp_path))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "\r" not in captured.err
        assert one_line(expected) in captured.err
        assert list(tmp_path.iterdir()) == []


class TestDeterminismAcrossCommands:
    def test_verify_identity_reruns_identical(self, tmp_path, singlet_file, capsys):
        a1 = write_operator(tmp_path / "a1.json", PROJ_R)
        a2 = write_operator(tmp_path / "a2.json", PROJ_L)
        outputs = []
        for _ in range(2):
            code = main(
                [
                    "verify-identity",
                    str(singlet_file),
                    str(a1),
                    str(a2),
                    "--samples",
                    "20000",
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_default_blas_threads_give_the_pinned_bytes(self, tmp_path):
        # Fresh processes with two sampler workers each: with no BLAS thread
        # variable set, OpenBLAS may start threads of its own, and the
        # reports still equal those of BLAS pinned to one thread.
        rng = np.random.default_rng(131)
        state = write_state(tmp_path / "state.json", rand_state(rng, 4, 4).amplitudes)
        a1 = write_operator(tmp_path / "a1.json", rand_selfadjoint(rng, 4))
        a2 = write_operator(tmp_path / "a2.json", rand_selfadjoint(rng, 4))
        runs = [
            ["experiment", "--experiment=beamsplitter", "--statistics=boson", "--spin=half",
             "--samples=20000"],
            ["verify-identity", str(state), str(a1), str(a2), "--samples=20000"],
        ]
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        default = {key: value for key, value in os.environ.items() if key not in blas}
        default["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        default["PCSFT_THREADS"] = "2"
        pinned = {**default, **dict.fromkeys(blas, "1")}
        for argv in runs:
            default_run, pinned_run = (
                subprocess.run(
                    [sys.executable, "-m", "pcsft.cli", *argv], env=env,
                    capture_output=True, text=True, timeout=120,
                )
                for env in (default, pinned)
            )
            assert pinned_run.returncode == 0, pinned_run.stderr
            assert default_run.stdout == pinned_run.stdout, argv

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0


class TestInputHashes:
    """Each report records, per input file, its path and the SHA-256 of
    the bytes it was parsed from, and each input file is opened once."""

    @pytest.mark.parametrize("command", ["verify-identity", "classify", "propagate", "channel"])
    def test_records_each_input_read_once(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        write_state(tmp_path / "state.json", SINGLET)
        write_operator(tmp_path / "a1.json", PROJ_R)
        write_operator(tmp_path / "a2.json", PROJ_L)
        write_pair(tmp_path / "h.json", "H1", "H2", np.eye(2), np.diag([1.0, -1.0]))
        write_pair(tmp_path / "u.json", "U1", "U2", np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        outputs = ["--output-state=s_out.json", "--output-covariance=c_out.json"]
        inputs, options = {
            "verify-identity": (
                {"state": "./state.json", "a1": "a1.json", "a2": str(tmp_path / "a2.json")},
                ["--samples=2000"],
            ),
            "classify": ({"state": "./state.json"}, []),
            "propagate": ({"state": "state.json", "hamiltonian": "./h.json"}, ["--t=1", *outputs]),
            "channel": ({"state": "./state.json", "channel": "u.json"}, outputs),
        }[command]
        expected = {
            field: {"path": str(Path(arg)), "sha256": hashlib.sha256(Path(arg).read_bytes()).hexdigest()}
            for field, arg in inputs.items()
        }
        resolved = [Path(arg).resolve() for arg in inputs.values()]
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(Path(file).resolve())
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        code = main([command, *inputs.values(), *options])
        monkeypatch.undo()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["inputs"] == expected
        assert [opened.count(path) for path in resolved] == [1] * len(inputs)


class TestParserReuse:
    def test_in_process_runs_match_fresh_processes(self, tmp_path, singlet_file, capsys):
        # main() builds its parser once per process; a run after an
        # argparse error or a field error prints and exits as a fresh
        # `python -m pcsft.cli` process does.
        a1 = write_operator(tmp_path / "a1.json", PROJ_R)
        a2 = write_operator(tmp_path / "a2.json", PROJ_L)
        unnormalized = tmp_path / "unnormalized.json"
        unnormalized.write_text(
            json.dumps({"d1": 2, "d2": 2, "amplitudes": [[[1.0, 0.0]] * 2] * 2}),
            encoding="utf-8",
        )
        experiment = ["experiment", "--experiment=beamsplitter", "--statistics=boson"]
        experiment += ["--spin=half", "--samples=3000", "--seed=3"]
        runs = [
            experiment,
            ["experiment", "--experiment=beamsplitter", "--statistics=anyon"],
            ["classify", str(singlet_file)],
            ["classify", str(unnormalized)],
            ["verify-identity", str(singlet_file), str(a1), str(a2), "--samples=3000"],
            experiment,
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "pcsft.cli", *argv], env=env,
                capture_output=True, text=True, timeout=60,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv


class TestHelp:
    EPSILON = "--epsilon EPSILON background level, a number or 'auto' (the default:"
    OUTPUTS = [
        "--output-state OUTPUT_STATE state file (default state_out.json; '-' is refused)",
        "--output-covariance OUTPUT_COVARIANCE covariance file "
        "(default covariance_out.json; '-' is refused)",
    ]

    @pytest.mark.parametrize(
        "command, transformed",
        [("verify-identity", False), ("experiment", False), ("propagate", True),
         ("channel", True)],
    )
    def test_shared_options_are_described(self, capsys, command, transformed):
        # Each shared option is defined once, so every subcommand that
        # takes it shows its help text.
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert self.EPSILON in text
        assert all((line in text) == transformed for line in self.OUTPUTS)

    @pytest.mark.parametrize("command", ["verify-identity", "experiment"])
    def test_samples_default_is_shown(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--samples SAMPLES Monte Carlo sample count (default 200000)" in text

    def test_every_option_has_help(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        missing = [
            (command, action.dest)
            for command, sub in subparsers.choices.items()
            for action in sub._actions
            if "-h" not in action.option_strings and not action.help
        ]
        assert missing == []


class TestOneSvdPerState:
    """epsilon="auto" and the covariance share one epsilon_min."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    def test_verify_identity(self, tmp_path, singlet_file, capsys, svd_calls):
        a1 = write_operator(tmp_path / "a1.json", PROJ_R)
        a2 = write_operator(tmp_path / "a2.json", PROJ_L)
        argv = ["verify-identity", str(singlet_file), str(a1), str(a2), "--samples=2000"]
        assert main(argv) == 0
        assert len(svd_calls) == 1

    def test_run_beamsplitter(self, svd_calls):
        from pcsft.experiments import run_beamsplitter

        assert run_beamsplitter("fermion", n_samples=2000).passed
        assert len(svd_calls) == 1


class TestOneEighPerForm:
    """A form's eigendecomposition runs once, when the form is built, and
    only for a form that is not diagonal; the other eigh is the factor's."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        return calls

    def test_experiment(self, capsys, eigh_calls):
        argv = ["experiment", "--experiment", "beamsplitter", "--statistics", "boson",
                "--spin", "half", "--samples=2000"]
        assert main(argv) == 0
        assert eigh_calls == [(8, 8)]

    @pytest.mark.parametrize(
        "a1, a2, calls",
        [
            (PROJ_R, PROJ_L, [(4, 4)]),
            (np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -0.5]]),
             np.array([[0.3, 1j], [-1j, 2.0]]),
             [(2, 2), (2, 2), (4, 4)]),
        ],
        ids=["projectors", "dense"],
    )
    def test_verify_identity(self, tmp_path, singlet_file, capsys, eigh_calls, a1, a2, calls):
        a1 = write_operator(tmp_path / "a1.json", a1)
        a2 = write_operator(tmp_path / "a2.json", a2)
        argv = ["verify-identity", str(singlet_file), str(a1), str(a2), "--samples=2000"]
        assert main(argv) == 0
        assert eigh_calls == calls


class TestOneAssemblyPerRequest:
    """D is assembled once per request, when its covariance is built; the
    factor, the centres and every analytic covariance read that array."""

    @pytest.fixture
    def assemblies(self, monkeypatch):
        # np.vstack is the one call pcsft.covariance assembles D with.
        calls = []
        vstack = np.vstack

        def counting_vstack(*args, **kwargs):
            out = vstack(*args, **kwargs)
            calls.append(out.shape)
            return out

        monkeypatch.setattr(np, "vstack", counting_vstack)
        return calls

    def test_experiment(self, capsys, assemblies):
        argv = ["experiment", "--experiment", "beamsplitter", "--statistics", "boson",
                "--spin", "half", "--samples=2000"]
        assert main(argv) == 0
        assert assemblies == [(8, 8)]

    def test_verify_identity(self, tmp_path, singlet_file, capsys, assemblies):
        a1 = write_operator(tmp_path / "a1.json", PROJ_R)
        a2 = write_operator(tmp_path / "a2.json", PROJ_L)
        argv = ["verify-identity", str(singlet_file), str(a1), str(a2), "--samples=2000"]
        assert main(argv) == 0
        assert assemblies == [(4, 4)]


class TestOutputRule:
    """main adds version to every report and inputs when files were read,
    renders and writes the report, and exits 1 exactly when its pass is
    false."""

    @staticmethod
    def sha256(path: str) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "command",
        ["verify-identity", "experiment", "classify", "propagate", "channel", "channel-preset"],
    )
    def test_version_and_the_files_read(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        write_state(tmp_path / "state.json", SINGLET)
        write_operator(tmp_path / "a1.json", PROJ_R)
        write_operator(tmp_path / "a2.json", PROJ_L)
        write_pair(tmp_path / "h.json", "H1", "H2", np.eye(2), np.eye(2))
        write_pair(tmp_path / "u.json", "U1", "U2", np.eye(2), np.eye(2))
        outputs = ["--output-state=s_out.json", "--output-covariance=c_out.json"]
        argv, read = {
            "verify-identity": (
                ["verify-identity", "state.json", "a1.json", "a2.json", "--samples=2000"],
                {"state": "state.json", "a1": "a1.json", "a2": "a2.json"},
            ),
            "experiment": (
                ["experiment", "--experiment=beamsplitter", "--statistics=fermion",
                 "--samples=2000"],
                {},
            ),
            "classify": (["classify", "state.json"], {"state": "state.json"}),
            "propagate": (
                ["propagate", "state.json", "h.json", "--t=1", *outputs],
                {"state": "state.json", "hamiltonian": "h.json"},
            ),
            "channel": (
                ["channel", "state.json", "u.json", *outputs],
                {"state": "state.json", "channel": "u.json"},
            ),
            "channel-preset": (
                ["channel", "state.json", "beamsplitter5050", *outputs],
                {"state": "state.json"},
            ),
        }[command]
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["version"] == __version__
        expected = {
            field: {"path": path, "sha256": self.sha256(path)} for field, path in read.items()
        }
        if command == "channel-preset":
            expected["channel"] = {"preset": "beamsplitter5050"}
        if expected:
            assert report["inputs"] == expected
        else:
            assert "inputs" not in report
        # A report with no pass key exits 0.
        if command in ("classify", "propagate", "channel", "channel-preset"):
            assert "pass" not in report

    def test_csv_rows_are_the_json_g_entries(self, capsys):
        argv = ["experiment", "--experiment=beamsplitter", "--statistics=boson",
                "--spin=half", "--seed=5", "--samples=2000"]
        assert main(argv) == 0
        g = json.loads(capsys.readouterr().out)["g"]
        assert main([*argv, "--format=csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows == [
            {"x": x, "y": y, **{key: str(value) for key, value in g[x + y].items()}}
            for x in ("R", "L") for y in ("R", "L")
        ]

    def test_failing_gate_exits_1_under_csv(self, tmp_path, monkeypatch, capsys):
        fail_every_gate(monkeypatch)
        out = tmp_path / "report.csv"
        code = main(["experiment", "--experiment=beamsplitter", "--statistics=fermion",
                     "--samples=2000", "--format=csv", f"--output={out}"])
        assert code == 1
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert [row["passed"] for row in rows] == ["False"] * 4


class TestImportPath:
    def test_cli_import_loads_no_scipy(self):
        # A fresh process, so modules other tests imported do not count.
        # The sampler starts plain threads, so neither concurrent.futures
        # nor the logging it imports is loaded either.  numpy loads
        # numpy.random on first use, which costs a cold process over 10 ms,
        # and only the sampler needs it: classify, channel and propagate
        # never do.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, pcsft.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent', 'logging') "
            "or m.startswith('numpy.random')))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_module_graph(self):
        # Only the CLI imports experiments, so lower layers never know the
        # report.  experiments imports neither serialize nor sampler: its
        # report holds only what the run computed, and the CLI lays it out.
        # The sampler imports no pcsft module but errors, so it
        # draws from the matrix it is handed, and the package imports no
        # submodule.  Only the sampler imports threading: it sums the block
        # results in order, so no other module needs a lock.  Only hilbert calls object.__setattr__: every value
        # type stores its fields through hilbert._store.  The CLI checks an
        # observable with hilbert.require_observable and takes the beam
        # splitter from experiments.beamsplitter_channel.
        package = Path(__file__).resolve().parents[1] / "src" / "pcsft"
        importers, sampler_imports, setattr_callers = set(), set(), set()
        experiments_names = set()
        threading_importers = set()
        cli_names = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"
                ):
                    setattr_callers.add(path.stem)
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if path.name == "__init__.py":
                    pytest.fail(f"__init__.py imports {names}")
                if any(name.split(".")[-1] == "experiments" for name in names):
                    importers.add(path.stem)
                if "threading" in names:
                    threading_importers.add(path.stem)
                if path.stem == "sampler" and isinstance(node, ast.ImportFrom) and node.level:
                    sampler_imports.add(node.module)
                if path.stem == "cli":
                    cli_names.update(names)
                if path.stem == "experiments":
                    experiments_names.update(names)
        assert importers == {"cli"}
        assert sampler_imports == {"errors"}
        assert not experiments_names & {"serialize", "sampler", "PRNG_ID"}
        assert [f.name for f in fields(ExperimentReport)] == [
            "epsilon", "g", "classified_symmetry"
        ]
        assert threading_importers == {"sampler"}
        assert setattr_callers == {"hilbert"}
        assert {"require_observable", "beamsplitter_channel"} <= cli_names
        assert not cli_names & {"require_selfadjoint", "UnitaryChannel"}

        # One output rule: main alone stamps the version on a report,
        # renders it, lays out the CSV rows from its g, writes it to stdout
        # and picks exit 0 or 1.
        # build_parser names __version__ for --version, and
        # _write_transformed renders the output state and covariance files.
        tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
        names = {
            node.name: {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
            }
            for node in tree.body if isinstance(node, ast.FunctionDef)
        }

        def users(name):
            return {function for function, used in names.items() if name in used}

        assert users("__version__") == {"build_parser", "main"}
        assert users("dumps_json") == {"_write_transformed", "main"}
        for name in ("stdout", "DictWriter", "PORTS", "EXIT_PASS", "EXIT_STAT_FAIL"):
            assert users(name) == {"main"}, name

    def test_one_field_prefix(self):
        # errors.SchemaError(field, reason) alone writes a rejected input's
        # "field '<name>': " prefix, and NotPositiveError names epsilon
        # itself, so main prints every rejection as it is, with no branch
        # on its type.
        package = Path(__file__).resolve().parents[1] / "src" / "pcsft"
        writers, calls = set(), []
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                # f-string parts are string constants too.
                if isinstance(node, ast.Constant) and "field '" in str(node.value):
                    writers.add(path.stem)
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
                    "SchemaError", "InteractionError"
                ):
                    calls.append(node)
        assert writers == {"errors"}
        assert len(calls) > 20
        for call in calls:
            assert len(call.args) + len(call.keywords) == 2, ast.unparse(call)
            assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        cli_source = (package / "cli.py").read_text(encoding="utf-8")
        assert "NotPositiveError" not in cli_source
        (main_def,) = [f for f in ast.parse(cli_source).body if getattr(f, "name", "") == "main"]
        assert "isinstance" not in ast.unparse(main_def)


class TestVersion:
    def test_pyproject_reads_the_package_version(self):
        # The version is defined once, in pcsft.__version__.
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        path = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(path.read_text(encoding="utf-8"))
        assert "version" not in config["project"]
        assert config["project"]["dynamic"] == ["version"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "pcsft.__version__"
        }
