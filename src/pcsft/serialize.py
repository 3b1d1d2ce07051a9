"""JSON (and CSV) encodings of the package's value types.

Complex scalars are encoded as two-element arrays [re, im].  Matrices
are nested lists of those pairs, row-major.  All emitted JSON uses
sorted keys and UTF-8 so that identical inputs produce byte-identical
documents.  Validation errors name the offending field and echo a value
of the document through ``reprlib.repr``, so a long one stays short.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from typing import Any

import numpy as np

from .channels import Hamiltonian, UnitaryChannel
from .covariance import BlockCovariance
from .errors import REJECTED_INPUT, InteractionError, SchemaError
from .hilbert import BipartiteState
from .quadratic import Estimate

_INTERACTION_KEYS = ("H12", "interaction", "coupling")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_entries(a: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(z) for z in row] for row in np.asarray(a, dtype=complex)]


def _number(value: Any, field: str, positive: bool = False) -> float:
    """The JSON number ``value`` as a finite float, positive if asked."""
    # bool is an int subclass, but JSON true/false is not a number.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(field, f"expected a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not (0.0 if positive else -math.inf) < number < math.inf:
        expected = "a finite positive number" if positive else "a finite number"
        raise SchemaError(field, f"expected {expected}, got {number}")
    return number


def _entry_from_pair(value: Any, field: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(field, f"expected [re, im] pair, got {reprlib.repr(value)}")
    return complex(_number(value[0], field), _number(value[1], field))


def _matrix_from_entries(entries: Any, field: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise SchemaError(field, "expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(entries):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{field}[{i}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{field}[{i}]", f"ragged row length {len(row)}")
        rows.append(
            [_entry_from_pair(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)]
        )
    return np.array(rows, dtype=complex)


def _require_key(obj: Any, key: str, parent: str, integer: bool = False) -> Any:
    """obj[key], naming '<parent>.<key>' when it is missing or, if
    ``integer``, not a JSON integer, and ``parent`` when obj is no object."""
    if not isinstance(obj, dict):
        raise SchemaError(parent, "expected a JSON object")
    path = f"{parent}.{key}"
    if key not in obj:
        raise SchemaError(path, "missing")
    value = obj[key]
    if integer and (not isinstance(value, int) or isinstance(value, bool)):
        raise SchemaError(path, "expected an integer")
    return value


def _declared_matrix(
    obj: Any, field: str, rows_key: str, cols_key: str, entries_key: str
) -> np.ndarray:
    """The matrix under ``entries_key``, checked against the dimensions
    declared under ``rows_key`` and ``cols_key``."""
    rows = _require_key(obj, rows_key, field, integer=True)
    cols = _require_key(obj, cols_key, field, integer=True)
    path = f"{field}.{entries_key}"
    entries = _matrix_from_entries(_require_key(obj, entries_key, field), path)
    if entries.shape != (rows, cols):
        raise SchemaError(path, f"shape {entries.shape} does not match "
                                f"declared {reprlib.repr((rows, cols))}")
    return entries


def naming(field: str, call, *args, **kwargs):
    """call(*args, **kwargs), turning its rejection of an input (one of
    REJECTED_INPUT) into a SchemaError naming ``field``."""
    try:
        return call(*args, **kwargs)
    except REJECTED_INPUT as exc:
        raise SchemaError(field, exc) from exc


def operator_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1], "entries": _matrix_entries(a)}


def operator_from_json(obj: Any, field: str = "operator") -> np.ndarray:
    return _declared_matrix(obj, field, "rows", "cols", "entries")


def state_to_json(state: BipartiteState) -> dict:
    return {
        "d1": state.d1,
        "d2": state.d2,
        "amplitudes": _matrix_entries(state.amplitudes),
    }


def state_from_json(obj: Any, field: str = "state") -> BipartiteState:
    amp = _declared_matrix(obj, field, "d1", "d2", "amplitudes")
    return naming(f"{field}.amplitudes", BipartiteState, amp)


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


def channel_from_json(obj: Any, field: str = "channel") -> UnitaryChannel:
    u1 = operator_from_json(_require_key(obj, "U1", field), f"{field}.U1")
    u2 = operator_from_json(_require_key(obj, "U2", field), f"{field}.U2")
    return naming(field, UnitaryChannel, u1=u1, u2=u2)


def hamiltonian_from_json(obj: Any, field: str = "hamiltonian") -> Hamiltonian:
    if isinstance(obj, dict):
        for key in _INTERACTION_KEYS:
            if key in obj:
                raise InteractionError(
                    f"{field}.{key}",
                    "interaction terms are not supported; only Hamiltonians of the "
                    "form H1 (x) I + I (x) H2 define a classical signal channel",
                )
    h1 = operator_from_json(_require_key(obj, "H1", field), f"{field}.H1")
    h2 = operator_from_json(_require_key(obj, "H2", field), f"{field}.H2")
    hbar = _number(obj.get("hbar", 1.0), f"{field}.hbar", positive=True)
    return naming(field, Hamiltonian, h1=h1, h2=h2, hbar=hbar)


def estimate_to_json(est: Estimate) -> dict:
    """The estimate's fields, in the column order of the experiment CSV."""
    return {
        "analytic": est.analytic,
        "value": est.value,
        "std_error": est.std_error,
        "n": est.n,
    }


def dumps_json(payload: Any) -> str:
    # allow_nan=False: NaN and inf are not JSON, so none reaches a report.
    text = json.dumps(
        payload, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
    )
    return text + "\n"


def load_json_file(path, what: str = "input") -> tuple[Any, str]:
    """(document, SHA-256 hex digest) of the JSON file at ``path``: one
    read, so the digest is that of the bytes the document was parsed from."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except OSError as exc:
        raise SchemaError(what, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(what, f"{path} is not UTF-8: {exc}") from exc
    # ValueError: a JSONDecodeError, or an integer past Python's digit
    # limit; RecursionError: arrays or objects nested past its depth limit.
    except (ValueError, RecursionError) as exc:
        raise SchemaError(what, f"invalid JSON in {path}: {exc}") from exc
