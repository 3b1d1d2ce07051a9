"""JSON (and CSV) encodings of the package's value types.

Complex scalars are encoded as two-element arrays [re, im].  Matrices
are nested lists of those pairs, row-major.  All emitted JSON uses
sorted keys and UTF-8 so that identical inputs produce byte-identical
documents.  Validation errors name the offending field.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Any

import numpy as np

from .channels import Hamiltonian, UnitaryChannel
from .covariance import BlockCovariance, SymmetryClass
from .errors import InteractionError, PcsftError, SchemaError
from .experiments import ExperimentReport, PORTS
from .hilbert import BipartiteState
from .quadratic import Estimate

_INTERACTION_KEYS = ("H12", "interaction", "coupling")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_entries(a: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(z) for z in row] for row in np.asarray(a, dtype=complex)]


def _entry_from_pair(value: Any, field: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
        # bool is an int subclass, but JSON true/false is not a number.
        or any(isinstance(v, bool) for v in value)
    ):
        raise SchemaError(f"field '{field}': expected [re, im] pair, got {value!r}")
    try:
        z = complex(float(value[0]), float(value[1]))
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise SchemaError(f"field '{field}': expected finite numbers")
    return z


def _matrix_from_entries(entries: Any, field: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"field '{field}': expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(entries):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"field '{field}[{i}]': expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"field '{field}[{i}]': ragged row length {len(row)}")
        rows.append(
            [_entry_from_pair(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)]
        )
    return np.array(rows, dtype=complex)


def _require_key(obj: Any, key: str, parent: str = "") -> Any:
    path = f"{parent}.{key}" if parent else key
    if not isinstance(obj, dict):
        raise SchemaError(f"field '{parent or key}': expected a JSON object")
    if key not in obj:
        raise SchemaError(f"field '{path}': missing")
    return obj[key]


def _int_field(obj: dict, key: str, parent: str = "") -> int:
    value = _require_key(obj, key, parent)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"field '{parent + '.' if parent else ''}{key}': expected an integer")
    return value


def operator_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1], "entries": _matrix_entries(a)}


def operator_from_json(obj: Any, field: str = "operator") -> np.ndarray:
    rows = _int_field(obj, "rows", field)
    cols = _int_field(obj, "cols", field)
    entries = _matrix_from_entries(_require_key(obj, "entries", field), f"{field}.entries")
    if entries.shape != (rows, cols):
        raise SchemaError(
            f"field '{field}.entries': shape {entries.shape} does not match "
            f"declared ({rows}, {cols})"
        )
    return entries


def state_to_json(state: BipartiteState) -> dict:
    return {
        "d1": state.d1,
        "d2": state.d2,
        "amplitudes": _matrix_entries(state.amplitudes),
    }


def state_from_json(obj: Any, field: str = "state") -> BipartiteState:
    d1 = _int_field(obj, "d1", field)
    d2 = _int_field(obj, "d2", field)
    amp = _matrix_from_entries(
        _require_key(obj, "amplitudes", field), f"{field}.amplitudes"
    )
    if amp.shape != (d1, d2):
        raise SchemaError(
            f"field '{field}.amplitudes': shape {amp.shape} does not match "
            f"declared ({d1}, {d2})"
        )
    try:
        return BipartiteState(amp)
    except PcsftError as exc:
        raise SchemaError(f"field '{field}.amplitudes': {exc}") from exc


def covariance_to_json(cov: BlockCovariance) -> dict:
    return {
        "d1": cov.d1,
        "d2": cov.d2,
        "epsilon": cov.epsilon,
        "D11": _matrix_entries(cov.d11),
        "D12": _matrix_entries(cov.d12),
        "D21": _matrix_entries(cov.d21),
        "D22": _matrix_entries(cov.d22),
    }


def covariance_from_json(obj: Any, field: str = "covariance") -> BlockCovariance:
    epsilon = _require_key(obj, "epsilon", field)
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
        raise SchemaError(f"field '{field}.epsilon': expected a number")
    blocks = {
        name: _matrix_from_entries(_require_key(obj, name, field), f"{field}.{name}")
        for name in ("D11", "D12", "D21", "D22")
    }
    try:
        return BlockCovariance(
            d11=blocks["D11"],
            d12=blocks["D12"],
            d21=blocks["D21"],
            d22=blocks["D22"],
            epsilon=float(epsilon),
        )
    except PcsftError as exc:
        raise SchemaError(f"field '{field}': {exc}") from exc


def channel_to_json(ch: UnitaryChannel) -> dict:
    return {"U1": operator_to_json(ch.u1), "U2": operator_to_json(ch.u2)}


def channel_from_json(obj: Any, field: str = "channel") -> UnitaryChannel:
    u1 = operator_from_json(_require_key(obj, "U1", field), f"{field}.U1")
    u2 = operator_from_json(_require_key(obj, "U2", field), f"{field}.U2")
    try:
        return UnitaryChannel(u1=u1, u2=u2)
    except (PcsftError, ValueError) as exc:
        raise SchemaError(f"field '{field}': {exc}") from exc


def hamiltonian_from_json(obj: Any, field: str = "hamiltonian") -> Hamiltonian:
    if isinstance(obj, dict):
        for key in _INTERACTION_KEYS:
            if key in obj:
                raise InteractionError(
                    f"field '{field}.{key}': interaction terms are not supported; "
                    "only Hamiltonians of the form H1 (x) I + I (x) H2 define a "
                    "classical signal channel"
                )
    h1 = operator_from_json(_require_key(obj, "H1", field), f"{field}.H1")
    h2 = operator_from_json(_require_key(obj, "H2", field), f"{field}.H2")
    hbar = obj.get("hbar", 1.0)
    if not isinstance(hbar, (int, float)) or isinstance(hbar, bool):
        raise SchemaError(f"field '{field}.hbar': expected a number")
    try:
        return Hamiltonian(h1=h1, h2=h2, hbar=float(hbar))
    except (PcsftError, ValueError) as exc:
        raise SchemaError(f"field '{field}': {exc}") from exc


def hamiltonian_to_json(h: Hamiltonian) -> dict:
    return {
        "H1": operator_to_json(h.h1),
        "H2": operator_to_json(h.h2),
        "hbar": h.hbar,
    }


def estimate_to_json(est: Estimate) -> dict:
    return {
        "value": est.value,
        "std_error": est.std_error,
        "n": est.n,
        "analytic": est.analytic,
        "seed": est.seed,
        "prng_id": est.prng_id,
    }


def symmetry_to_json(sym: SymmetryClass) -> dict:
    return {"tag": sym.tag.value, "theta": sym.theta, "residual": sym.residual}


def report_to_json(report: ExperimentReport) -> dict:
    g = {}
    for key, entry in report.g.entries.items():
        g[key] = {
            "analytic": entry.analytic,
            "value": entry.estimate.value,
            "std_error": entry.estimate.std_error,
            "n": entry.estimate.n,
            "passed": entry.passed,
        }
    return {
        "experiment": report.experiment,
        "statistics": report.statistics,
        "spin": report.spin,
        "epsilon": report.epsilon,
        "seed": report.seed,
        "n_samples": report.n_samples,
        "g": g,
        "pass": report.passed,
        "prng_id": report.prng_id,
        "classified_symmetry": report.classified_symmetry,
    }


def report_to_csv_rows(report: ExperimentReport) -> list[dict]:
    """One row per (x, y) port pair, for the CSV export."""
    rows = []
    for x in PORTS:
        for y in PORTS:
            entry = report.g[x + y]
            rows.append(
                {
                    "x": x,
                    "y": y,
                    "analytic": entry.analytic,
                    "value": entry.estimate.value,
                    "std_error": entry.estimate.std_error,
                    "n": entry.estimate.n,
                    "passed": entry.passed,
                }
            )
    return rows


def dumps_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_json_file(path, what: str = "input"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"field '{what}': cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"field '{what}': invalid JSON in {path}: {exc}") from exc
