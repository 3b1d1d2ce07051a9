"""Command-line interface: exit codes, determinism, file handling."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcsft import Hamiltonian, matricize
from pcsft import serialize
from pcsft.cli import main
from conftest import states_equal_up_to_phase

C = 1.0 / np.sqrt(2.0)
SINGLET = np.array([[0.0, C], [-C, 0.0]])
PROJ_R = np.diag([1.0, 0.0])
PROJ_L = np.diag([0.0, 1.0])


def write_state(path, amplitudes):
    state = matricize(np.asarray(amplitudes, dtype=complex))
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


@pytest.fixture
def singlet_file(tmp_path):
    return write_state(tmp_path / "state.json", SINGLET)


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
        from pcsft import quantum_average_tensor

        rng = np.random.default_rng(120)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        state = matricize(g, renormalize=True)
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
        with pytest.raises(SystemExit) as exc_info:
            main(["experiment", "--experiment", "beamsplitter", "--statistics", "anyon"])
        assert exc_info.value.code == 2

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
        import pcsft.cli as cli_module

        real_run = cli_module.run_beamsplitter

        def failing_run(*args, **kwargs):
            report = real_run(*args, **kwargs)
            entries = {
                key: type(entry)(
                    analytic=entry.analytic, estimate=entry.estimate, passed=False
                )
                for key, entry in report.g.entries.items()
            }
            return type(report)(
                experiment=report.experiment,
                statistics=report.statistics,
                spin=report.spin,
                epsilon=report.epsilon,
                seed=report.seed,
                n_samples=report.n_samples,
                g=type(report.g)(entries=entries),
                passed=False,
                prng_id=report.prng_id,
                classified_symmetry=report.classified_symmetry,
            )

        monkeypatch.setattr(cli_module, "run_beamsplitter", failing_run)
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


class TestPropagateCommand:
    def test_time_zero_identity(self, tmp_path, singlet_file, capsys):
        h = Hamiltonian(
            h1=np.diag([1.0, -1.0]).astype(complex),
            h2=np.diag([1.0, -1.0]).astype(complex),
        )
        ham = tmp_path / "h.json"
        ham.write_text(
            serialize.dumps_json(serialize.hamiltonian_to_json(h)), encoding="utf-8"
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
        cov = serialize.covariance_from_json(json.loads(out_cov.read_text()))
        assert cov.epsilon == pytest.approx((np.sqrt(2) - 1) / 2 + 0.05)

    def test_interaction_hamiltonian_exits_2(self, tmp_path, singlet_file, capsys):
        ham = tmp_path / "h.json"
        payload = serialize.hamiltonian_to_json(
            Hamiltonian(h1=np.eye(2), h2=np.eye(2))
        )
        payload["interaction"] = serialize.operator_to_json(np.eye(4))
        ham.write_text(serialize.dumps_json(payload), encoding="utf-8")
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

    def test_channel_file(self, tmp_path, singlet_file, capsys):
        from pcsft import UnitaryChannel, beamsplitter_unitary

        ch = UnitaryChannel(u1=beamsplitter_unitary(), u2=beamsplitter_unitary())
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(
            serialize.dumps_json(serialize.channel_to_json(ch)), encoding="utf-8"
        )
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

    def test_group_law_regression(self, tmp_path, singlet_file, capsys):
        # propagate twice by t then once by 2t; states must agree
        h = Hamiltonian(
            h1=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            h2=np.diag([0.5, -0.5]).astype(complex),
        )
        ham = tmp_path / "h.json"
        ham.write_text(
            serialize.dumps_json(serialize.hamiltonian_to_json(h)), encoding="utf-8"
        )

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
            ("experiment", "--samples=999", "samples"),
            ("verify-identity", "--epsilon=0.01", "epsilon"),
            ("experiment", "--epsilon=0.01", "epsilon"),
            ("propagate", "--epsilon=0.01", "epsilon"),
            ("channel", "--epsilon=0.01", "epsilon"),
        ],
    )
    def test_exits_2_naming_the_field(
        self, tmp_path, singlet_file, capsys, command, option, field
    ):
        a1 = str(write_operator(tmp_path / "a1.json", PROJ_R))
        ham = tmp_path / "h.json"
        ham.write_text(
            serialize.dumps_json(
                serialize.hamiltonian_to_json(Hamiltonian(h1=np.eye(2), h2=np.eye(2)))
            ),
            encoding="utf-8",
        )
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

    @pytest.mark.parametrize(
        "command, operand, document, field",
        [
            ("verify-identity", "a1", serialize.operator_to_json(np.eye(3)), "a1"),
            ("verify-identity", "a2", serialize.operator_to_json(np.eye(3)), "a2"),
            ("verify-identity", "a1", serialize.operator_to_json(np.triu(np.ones((2, 2)))), "a1"),
            (
                "classify",
                "state",
                {"d1": 1, "d2": 2, "amplitudes": [[[1e308, 1e308], [0.0, 0.0]]]},
                "state.amplitudes",
            ),
        ],
        ids=["a1-size", "a2-size", "a1-not-selfadjoint", "huge-amplitudes"],
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
        names = {"verify-identity": ["state", "a1", "a2"], "classify": ["state"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, *(str(files[name]) for name in names)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"field '{field}'" in captured.err


# Values no amplitude component may take: non-finite, so large that |a|^2
# overflows, beyond the float range, or not a number at all.
BAD_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=1e154, max_value=1.7e308),
    st.integers(min_value=2**1024, max_value=10**400),
    st.booleans(),
)
NOT_A_PAIR = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=1),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
NOT_AN_INTEGER = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(), max_size=1),
)
NOT_A_MATRIX = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.just([]),
    st.lists(st.integers(), min_size=1, max_size=2),
)


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
        doc[key] = draw(st.one_of(wrong, NOT_AN_INTEGER))
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
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["classify", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "field '" in captured.err


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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0


class TestImportPath:
    def test_cli_import_loads_no_scipy(self):
        # A fresh process, so modules other tests imported do not count.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, pcsft.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert result.stdout.strip() == "[]"
