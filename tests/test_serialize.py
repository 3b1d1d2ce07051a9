"""JSON encodings: roundtrips and schema validation."""

import csv
import io
import json

import numpy as np
import pytest

from pcsft.errors import InteractionError, SchemaError
from pcsft.hilbert import BipartiteState
from pcsft.covariance import build_covariance
from pcsft.cli import main
from pcsft import serialize
from conftest import rand_selfadjoint, rand_state, rand_unitary

C = 1.0 / np.sqrt(2.0)


class TestOperatorRoundtrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(100)
        a = rand_selfadjoint(rng, 3)
        obj = serialize.operator_to_json(a)
        np.testing.assert_allclose(serialize.operator_from_json(obj), a)

    def test_complex_pair_encoding(self):
        obj = serialize.operator_to_json(np.array([[1 + 2j]]))
        assert obj == {"rows": 1, "cols": 1, "entries": [[[1.0, 2.0]]]}

    def test_shape_mismatch_names_field(self):
        obj = {"rows": 2, "cols": 2, "entries": [[[1.0, 0.0]]]}
        with pytest.raises(SchemaError, match="entries"):
            serialize.operator_from_json(obj, "a1")

    def test_bad_pair_names_indices(self):
        obj = {"rows": 1, "cols": 1, "entries": [[[1.0]]]}
        with pytest.raises(SchemaError, match=r"entries\[0\]\[0\]"):
            serialize.operator_from_json(obj)

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="rows"):
            serialize.operator_from_json({"cols": 1, "entries": [[[0.0, 0.0]]]})


class TestStateRoundtrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(101)
        state = rand_state(rng, 2, 3)
        obj = serialize.state_to_json(state)
        assert obj["d1"] == 2 and obj["d2"] == 3
        out = serialize.state_from_json(obj)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_unnormalized_rejected(self):
        obj = {"d1": 1, "d2": 1, "amplitudes": [[[2.0, 0.0]]]}
        with pytest.raises(SchemaError, match="amplitudes"):
            serialize.state_from_json(obj)

    def test_declared_dims_must_match(self):
        obj = {"d1": 2, "d2": 2, "amplitudes": [[[1.0, 0.0]]]}
        with pytest.raises(SchemaError):
            serialize.state_from_json(obj)


class TestCovarianceRoundtrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(102)
        cov = build_covariance(rand_state(rng, 2, 3), 0.3)
        obj = serialize.covariance_to_json(cov)
        assert (obj["d1"], obj["d2"], obj["epsilon"]) == (2, 3, cov.epsilon)
        for name, block in (
            ("D11", cov.d11), ("D12", cov.d12), ("D21", cov.d21), ("D22", cov.d22)
        ):
            pairs = np.array(obj[name])
            np.testing.assert_array_equal(pairs[..., 0] + 1j * pairs[..., 1], block)


class TestChannelAndHamiltonian:
    def test_channel_roundtrip(self):
        rng = np.random.default_rng(103)
        u1, u2 = rand_unitary(rng, 2), rand_unitary(rng, 3)
        obj = {"U1": serialize.operator_to_json(u1), "U2": serialize.operator_to_json(u2)}
        out = serialize.channel_from_json(obj)
        np.testing.assert_array_equal(out.u1, u1)
        np.testing.assert_array_equal(out.u2, u2)

    def test_non_unitary_rejected(self):
        obj = {
            "U1": serialize.operator_to_json(np.array([[1.0, 1.0], [0.0, 1.0]])),
            "U2": serialize.operator_to_json(np.eye(2)),
        }
        with pytest.raises(SchemaError):
            serialize.channel_from_json(obj)

    def test_hamiltonian_roundtrip(self):
        rng = np.random.default_rng(104)
        h1, h2 = rand_selfadjoint(rng, 2), rand_selfadjoint(rng, 3)
        obj = {
            "H1": serialize.operator_to_json(h1),
            "H2": serialize.operator_to_json(h2),
            "hbar": 2.0,
        }
        out = serialize.hamiltonian_from_json(obj)
        np.testing.assert_array_equal(out.h1, h1)
        np.testing.assert_array_equal(out.h2, h2)
        assert out.hbar == 2.0
        del obj["hbar"]
        assert serialize.hamiltonian_from_json(obj).hbar == 1.0

    def test_interaction_term_rejected(self):
        rng = np.random.default_rng(105)
        obj = {
            "H1": serialize.operator_to_json(rand_selfadjoint(rng, 2)),
            "H2": serialize.operator_to_json(rand_selfadjoint(rng, 2)),
            "H12": serialize.operator_to_json(np.eye(4)),
        }
        with pytest.raises(InteractionError):
            serialize.hamiltonian_from_json(obj)


class TestReportEncoding:
    # The experiment report is laid out by the CLI, so its layout is read
    # off main's output.
    ARGV = ["experiment", "--experiment=beamsplitter", "--samples=1000"]

    def test_report_schema_keys(self, capsys):
        assert main([*self.ARGV, "--statistics=fermion", "--seed=3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {
            "experiment",
            "statistics",
            "spin",
            "epsilon",
            "seed",
            "n_samples",
            "g",
            "pass",
            "prng_id",
            "classified_symmetry",
            "version",
        }
        assert set(obj["g"]) == {"RR", "RL", "LR", "LL"}
        entry = obj["g"]["RL"]
        assert set(entry) == {"analytic", "value", "std_error", "n", "passed"}

    def test_csv_rows(self, capsys):
        assert main([*self.ARGV, "--statistics=boson", "--seed=4", "--format=csv"]) == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
        rows = list(reader)
        assert reader.fieldnames == ["x", "y", "analytic", "value", "std_error", "n", "passed"]
        assert len(rows) == 4
        assert {(r["x"], r["y"]) for r in rows} == {
            ("R", "R"),
            ("R", "L"),
            ("L", "R"),
            ("L", "L"),
        }

    def test_estimate_json_keys(self):
        from pcsft.quadratic import Estimate

        # An estimate carries only its statistics; verify-identity adds the
        # seed and prng_id to its "mc" object itself.
        est = Estimate(value=0.5, std_error=0.01, n=100, analytic=0.25)
        obj = serialize.estimate_to_json(est)
        assert obj == {"value": 0.5, "std_error": 0.01, "n": 100, "analytic": 0.25}

    def test_dumps_sorted_and_stable(self):
        payload = {"b": 1, "a": [1.5, -2.25]}
        text = serialize.dumps_json(payload)
        assert text.index('"a"') < text.index('"b"')
        assert serialize.dumps_json(payload) == text


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_dumps_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            serialize.dumps_json({"tensor": value})


class TestStateFileHelpers:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="state"):
            serialize.load_json_file(tmp_path / "absent.json", "state")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="bad.json"):
            serialize.load_json_file(path, "state")

    def test_full_state_file_roundtrip(self, tmp_path):
        state = BipartiteState(np.array([[0.0, C], [-C, 0.0]]))
        path = tmp_path / "state.json"
        path.write_text(
            serialize.dumps_json(serialize.state_to_json(state)), encoding="utf-8"
        )
        document, _ = serialize.load_json_file(path)
        loaded = serialize.state_from_json(document)
        np.testing.assert_allclose(loaded.amplitudes, state.amplitudes)
