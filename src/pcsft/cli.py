"""Command-line front end.

Subcommands
-----------
verify-identity   check the operator/tensor average identity and the
                  correlation identity on user-supplied state and
                  observables, analytically and by Monte Carlo
experiment        run a beam-splitter bunching/anti-bunching experiment
classify          report the exchange-symmetry class of a state
propagate         evolve a state under an interaction-free Hamiltonian
channel           apply a factorized unitary channel (or the
                  "beamsplitter5050" preset)

Each subcommand assembles and returns its report.  ``main`` adds
``version``, and ``inputs`` when files were read; renders it as UTF-8
JSON with sorted keys, or as CSV under ``--format csv``; writes it to
``--output``, or to stdout when that is absent or '-'; and exits 1 when
the report's ``pass`` is false, 2 on a rejected input (one ``error:``
line, parser errors included), 0 otherwise.  Every run is deterministic
given its arguments, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import apply_to_state, evolution_channel
from .covariance import (
    AUTO_EPSILON_MARGIN, SYMMETRY_TOL, build_covariance, classify_symmetry,
)
from .errors import REJECTED_INPUT, PcsftError, SchemaError
from .experiments import PORTS, beamsplitter_channel, run_beamsplitter
from .hilbert import quantum_average_tensor, quantum_average_trace, require_observable
from .quadratic import DEFAULT_SAMPLES, MIN_SAMPLES, QuadraticForm, cross_estimates
from .sampler import MAX_SAMPLES, PRNG_ID, SEED_BOUND
from . import serialize

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_INPUT_ERROR = 2

# Tolerance of the verify-identity checks, relative to max |A1| · max |A2| at every
# scale, as their rounding is.  The peak gate keeps that product at or above 1e-100,
# or exactly 0, where all three routes give exact zeros.
IDENTITY_TOL = 1e-10

# A nonzero verify-identity observable's largest entry modulus lies in
# [1 / MAX_OPERATOR_ENTRY, MAX_OPERATOR_ENTRY].  The standard error reads
# fourth moments of the form values, which scale with the fourth power of
# the entries: within [1e-50, 1e50] they stay far inside the normal float
# range for any sample count; from 1e75 they overflow, and from about
# 1e-80 they underflow, so a correct run would fail its gate at zero width.
MAX_OPERATOR_ENTRY = 1e50


def _load(inputs: dict, field: str, path: str, parse):
    """parse(document, field) of the JSON file at ``path``, recording in
    ``inputs[field]`` the path and the SHA-256 of the bytes parsed."""
    path = Path(path)
    document, digest = serialize.load_json_file(path, field)
    inputs[field] = {"path": str(path), "sha256": digest}
    return parse(document, field)


def _checked(field: str, parse, admissible, expected: str):
    """An argparse type: parse(text) if admissible, else a SchemaError naming ``field``."""
    def convert(text: str):
        with contextlib.suppress(ValueError):  # unparsable
            if admissible(value := parse(text)):
                return value
        raise SchemaError(field, f"expected {expected}, got {reprlib.repr(text)}")
    return convert


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors are rejected inputs, not exits."""

    def error(self, message):
        raise PcsftError(message)


# Options that several subcommands take, each defined once with its rule.  The
# summary goes to stdout, so '-' names no file for the transformed outputs.
_OPTIONS = {
    "--seed": dict(default=0, help="PRNG seed (default 0)", type=_checked(
        "seed", int, lambda v: 0 <= v < SEED_BOUND, "an integer in [0, 2**64)")),
    "--samples": dict(
        default=DEFAULT_SAMPLES, help="Monte Carlo sample count (default %(default)s)",
        type=_checked("samples", int, lambda v: MIN_SAMPLES <= v <= MAX_SAMPLES,
                      f"an integer in [{MIN_SAMPLES}, {MAX_SAMPLES}]")),
    "--epsilon": dict(
        default="auto", help="background level, a number or 'auto' "
        f"(the default: epsilon_min + {AUTO_EPSILON_MARGIN})",
        type=_checked("epsilon", lambda s: s if s == "auto" else float(s),
                      lambda v: v == "auto" or math.isfinite(v), "a number or 'auto'")),
    "--output": dict(help="output file (default or '-': stdout)"),
    "--output-state": dict(default="state_out.json",
                           help="state file (default %(default)s; '-' is refused)"),
    "--output-covariance": dict(default="covariance_out.json",
                                help="covariance file (default %(default)s; '-' is refused)"),
}


def _add_options(parser: argparse.ArgumentParser, *names: str):
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def cmd_verify_identity(args, inputs: dict) -> dict:
    state = _load(inputs, "state", args.state, serialize.state_from_json)
    ops = {name: _load(inputs, name, getattr(args, name), serialize.operator_from_json)
           for name in ("a1", "a2")}
    for name, dim in (("a1", state.d1), ("a2", state.d2)):
        ops[name] = a = serialize.naming(name, require_observable, ops[name], dim, name.upper())
        peak = np.max(np.abs(a))
        if peak and not 1 / MAX_OPERATOR_ENTRY <= peak <= MAX_OPERATOR_ENTRY:
            bounds = f"[{1 / MAX_OPERATOR_ENTRY:.0e}, {MAX_OPERATOR_ENTRY:.0e}]"
            raise SchemaError(name, f"expected the largest entry modulus in {bounds}, got {peak:.3g}")
    a1, a2 = ops.values()

    tensor = quantum_average_tensor(state, a1, a2)
    trace = quantum_average_trace(state, a1, a2)
    cov = build_covariance(state, args.epsilon)
    f1 = QuadraticForm(operator=a1, side=1)
    f2 = QuadraticForm(operator=a2, side=2)
    [[est]] = cross_estimates(cov, [f1], [f2], seed=args.seed, count=args.samples)

    tol = IDENTITY_TOL * float(np.max(np.abs(a1))) * float(np.max(np.abs(a2)))
    checks = {
        "trace_vs_tensor": abs(trace - tensor) <= tol,
        "cov_vs_tensor": abs(est.analytic - tensor) <= tol,
        "mc_within_5_se": est.within(),
    }
    return {
        "tensor": tensor,
        "trace": trace,
        "analytic_cov": est.analytic,
        "mc": {**serialize.estimate_to_json(est), "seed": args.seed, "prng_id": PRNG_ID},
        "epsilon": cov.epsilon,
        "seed": args.seed,
        "n_samples": args.samples,
        "checks": checks,
        "pass": all(checks.values()),
        "prng_id": PRNG_ID,
    }


def cmd_experiment(args, inputs: dict) -> dict:
    """The run's results with the arguments that fix it; each ``g`` entry
    is also a CSV row."""
    run = run_beamsplitter(args.statistics, args.spin, epsilon=args.epsilon,
                           seed=args.seed, n_samples=args.samples)
    return {
        "experiment": args.experiment,
        "statistics": args.statistics,
        "spin": args.spin,
        "epsilon": run.epsilon,
        "seed": args.seed,
        "n_samples": args.samples,
        "g": {key: {**serialize.estimate_to_json(est), "passed": est.within()}
              for key, est in run.g.items()},
        "pass": run.passed,
        "prng_id": PRNG_ID,
        "classified_symmetry": run.classified_symmetry,
    }


def cmd_classify(args, inputs: dict) -> dict:
    state = _load(inputs, "state", args.state, serialize.state_from_json)
    sym = serialize.naming("state", classify_symmetry, state, tol=args.tol)
    return {"tag": sym.tag.value, "residual": sym.residual, "tol": args.tol}


def _write_transformed(state, args) -> dict:
    cov = build_covariance(state, args.epsilon)
    docs = {
        "output_state": serialize.state_to_json(state),
        "output_covariance": serialize.covariance_to_json(cov),
    }
    for field in docs:
        if getattr(args, field) == "-":
            raise SchemaError(field, "expected a file path, got '-'")
    paths = {field: Path(getattr(args, field)) for field in docs}
    # Open both outputs before writing either.  Append mode creates a
    # missing file and leaves an existing one as it is, so when an open
    # fails, or both paths name one file, removing the files this call
    # created undoes it.
    created = []
    try:
        for field, path in paths.items():
            existed = path.exists()
            serialize.naming(field, open, path, "a").close()
            if not existed:
                created.append(path)
        if paths["output_state"].samefile(paths["output_covariance"]):
            raise SchemaError("output_covariance", f"{paths['output_covariance']} is also "
                              f"the output_state file {paths['output_state']}")
    except PcsftError:
        for path in created:
            path.unlink()
        raise
    for field, doc in docs.items():
        text = serialize.dumps_json(doc)
        serialize.naming(field, paths[field].write_text, text, encoding="utf-8")
    return {
        "output_state": str(args.output_state),
        "output_covariance": str(args.output_covariance),
        "epsilon": cov.epsilon,
    }


def cmd_propagate(args, inputs: dict) -> dict:
    state = _load(inputs, "state", args.state, serialize.state_from_json)
    ham = _load(inputs, "hamiltonian", args.hamiltonian, serialize.hamiltonian_from_json)
    try:
        channel = serialize.naming("hamiltonian", evolution_channel, ham, args.t)
    except OverflowError as exc:
        raise SchemaError("t", exc) from None
    out = serialize.naming("hamiltonian", apply_to_state, channel, state)
    return {**_write_transformed(out, args), "t": args.t}


def cmd_channel(args, inputs: dict) -> dict:
    state = _load(inputs, "state", args.state, serialize.state_from_json)
    if args.channel == "beamsplitter5050":
        if state.d2 != state.d1 or state.d1 % 2 != 0:
            raise SchemaError("channel", "beamsplitter5050 needs equal even dimensions")
        channel = beamsplitter_channel(state.d1 // 2)
        inputs["channel"] = {"preset": "beamsplitter5050"}
    else:
        channel = _load(inputs, "channel", args.channel, serialize.channel_from_json)
    out = serialize.naming("channel", apply_to_state, channel, state)
    return _write_transformed(out, args)


@functools.cache  # one parser per process, shared by every in-process main()
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcsft",
        description=(
            "Simulate classical Gaussian bi-signals that reproduce quantum "
            "correlations, and verify the correspondence numerically."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pcsft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-identity",
        help="check trace/tensor/correlation identities on given inputs",
    )
    p.add_argument("state", help="state JSON file")
    p.add_argument("a1", help="observable on component 1, operator JSON")
    p.add_argument("a2", help="observable on component 2, operator JSON")
    _add_options(p, "--seed", "--samples", "--epsilon", "--output")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("experiment", help="run a turn-key experiment")
    p.add_argument("--experiment", required=True, choices=["beamsplitter"],
                   help="experiment to run: the 50/50 beam splitter")
    p.add_argument("--statistics", required=True, choices=["boson", "fermion"],
                   help="exchange symmetry of the input pair")
    p.add_argument("--spin", default="0", choices=["0", "half"],
                   help="spin of each particle (default %(default)s)")
    _add_options(p, "--seed", "--samples", "--epsilon", "--output")
    p.add_argument("--format", default="json", choices=["json", "csv"],
                   help="report format (default %(default)s)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("classify", help="exchange-symmetry class of a state")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--tol", type=_checked("tol", float, lambda v: 0 < v < math.inf,
                                          "a finite positive number"), default=SYMMETRY_TOL,
                   help="max-norm tolerance of the symmetry conditions "
                        "(default %(default)s)")
    _add_options(p, "--output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("propagate", help="evolve a state for time t")
    p.add_argument("state", help="state JSON file")
    p.add_argument("hamiltonian", help="hamiltonian JSON file ({H1, H2, hbar})")
    p.add_argument("--t", type=_checked("t", float, math.isfinite, "a finite number"),
                   required=True, help="evolution time")
    _add_options(p, "--epsilon", "--output-state", "--output-covariance")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("channel", help="apply a factorized unitary channel")
    p.add_argument("state", help="state JSON file")
    p.add_argument(
        "channel", help="channel JSON file ({U1, U2}) or preset 'beamsplitter5050'"
    )
    _add_options(p, "--epsilon", "--output-state", "--output-covariance")
    p.set_defaults(func=cmd_channel)

    return parser


def main(argv=None) -> int:
    """Parse ``argv``, run its subcommand, apply the output rule (see the
    module docstring) to the report it returns, and return the exit code."""
    inputs = {}
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args, inputs)
        report["version"] = __version__
        if inputs:
            report["inputs"] = inputs
        if getattr(args, "format", "json") == "csv":
            rows = [{"x": x, "y": y, **report["g"][x + y]} for x in PORTS for y in PORTS]
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
            text = buf.getvalue()
        else:
            text = serialize.dumps_json(report)
        if (output := getattr(args, "output", None)) in (None, "-"):
            sys.stdout.write(text)
        else:
            serialize.naming("output", Path(output).write_text, text, encoding="utf-8")
    except REJECTED_INPUT as exc:
        # Escaping line breaks keeps it one line, whatever the message echoes.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_PASS if report.get("pass", True) else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
