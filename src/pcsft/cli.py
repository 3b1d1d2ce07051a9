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

Exit codes: 0 all checks passed, 1 a statistical test failed, 2 invalid
input.  Output is UTF-8 JSON with sorted keys; every run is
deterministic given its arguments, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import UnitaryChannel, apply_to_state, evolution_channel
from .covariance import build_covariance, classify_symmetry, epsilon_min
from .errors import PcsftError, SelfAdjointnessError
from .experiments import (
    AUTO_EPSILON_MARGIN,
    MIN_SAMPLES,
    beamsplitter_unitary,
    run_beamsplitter,
)
from .hilbert import (
    quantum_average_tensor,
    quantum_average_trace,
    require_selfadjoint,
)
from .quadratic import QuadraticForm, analytic_cov, form_moments
from .sampler import PRNG_ID
from . import serialize

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_INPUT_ERROR = 2

IDENTITY_TOL = 1e-10


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _input_stamp(**paths: Path) -> dict:
    return {
        name: {"path": str(path), "sha256": _sha256(path)}
        for name, path in paths.items()
    }


def _emit(text: str, output: str | None):
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _parse_epsilon(spec: str) -> float | str:
    """The --epsilon value: 'auto' or a finite number."""
    if spec == "auto":
        return spec
    try:
        value = float(spec)
    except ValueError:
        raise PcsftError(
            f"field 'epsilon': expected a number or 'auto', got {spec!r}"
        ) from None
    if not np.isfinite(value):
        raise PcsftError(f"field 'epsilon': expected a finite number, got {spec!r}")
    return value


def _resolve_epsilon(spec: str, state) -> float:
    value = _parse_epsilon(spec)
    if value == "auto":
        return epsilon_min(state) + AUTO_EPSILON_MARGIN
    return value


def _check_numbers(args):
    """Reject an out-of-range numeric option, naming its field, before any
    computation; a subcommand checks the options it has."""
    options = vars(args)
    least = MIN_SAMPLES if args.func is cmd_experiment else 2
    for name, admissible, expected in (
        ("samples", lambda v: v >= least, f"an integer >= {least}"),
        ("seed", lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)"),
        ("t", math.isfinite, "a finite number"),
        ("tol", lambda v: v > 0, "a positive number"),
    ):
        if name in options and not admissible(value := options[name]):
            raise PcsftError(f"field '{name}': expected {expected}, got {value}")


def _add_common_sampling(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser.add_argument(
        "--samples", type=int, default=200_000, help="Monte Carlo sample count"
    )
    parser.add_argument(
        "--epsilon", default="auto", help="background level, a number or 'auto'"
    )


def cmd_verify_identity(args) -> int:
    state_path = Path(args.state)
    a1_path = Path(args.a1)
    a2_path = Path(args.a2)
    state = serialize.state_from_json(
        serialize.load_json_file(state_path, "state"), "state"
    )
    a1 = serialize.operator_from_json(
        serialize.load_json_file(a1_path, "a1"), "a1"
    )
    a2 = serialize.operator_from_json(
        serialize.load_json_file(a2_path, "a2"), "a2"
    )
    for name, a, dim in (("a1", a1, state.d1), ("a2", a2, state.d2)):
        if a.shape != (dim, dim):
            raise PcsftError(
                f"field '{name}': shape {a.shape}, the state needs ({dim}, {dim})"
            )
        try:
            require_selfadjoint(a, name=name.upper())
        except SelfAdjointnessError as exc:
            raise PcsftError(f"field '{name}': {exc}") from None

    tensor = quantum_average_tensor(state, a1, a2)
    trace = quantum_average_trace(state, a1, a2)
    eps = _resolve_epsilon(args.epsilon, state)
    cov = build_covariance(state, eps)
    f1 = QuadraticForm(operator=a1, side=1)
    f2 = QuadraticForm(operator=a2, side=2)
    cov_value = analytic_cov(cov, f1, f2)
    moments = form_moments(cov, seed=args.seed, count=args.samples, forms=[f1, f2])
    est = moments.cov(0, 1, analytic=cov_value)

    checks = {
        "trace_vs_tensor": abs(trace - tensor) <= IDENTITY_TOL,
        "cov_vs_tensor": abs(cov_value - tensor) <= IDENTITY_TOL,
        "mc_within_5_se": est.within(5.0),
    }
    payload = {
        "tensor": tensor,
        "trace": trace,
        "analytic_cov": cov_value,
        "mc": serialize.estimate_to_json(est),
        "epsilon": eps,
        "seed": args.seed,
        "n_samples": args.samples,
        "checks": checks,
        "pass": all(checks.values()),
        "prng_id": PRNG_ID,
        "version": __version__,
        "inputs": _input_stamp(state=state_path, a1=a1_path, a2=a2_path),
    }
    _emit(serialize.dumps_json(payload), args.output)
    return EXIT_PASS if payload["pass"] else EXIT_STAT_FAIL


def cmd_experiment(args) -> int:
    if args.experiment != "beamsplitter":
        raise PcsftError(
            f"field 'experiment': unknown experiment {args.experiment!r}"
        )
    report = run_beamsplitter(
        statistics=args.statistics,
        spin=args.spin,
        epsilon=_parse_epsilon(args.epsilon),
        seed=args.seed,
        n_samples=args.samples,
    )
    payload = serialize.report_to_json(report)
    payload["version"] = __version__
    if args.format == "json":
        _emit(serialize.dumps_json(payload), args.output)
    else:
        buf = io.StringIO()
        rows = serialize.report_to_csv_rows(report)
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.output)
    return EXIT_PASS if report.passed else EXIT_STAT_FAIL


def cmd_classify(args) -> int:
    state_path = Path(args.state)
    state = serialize.state_from_json(
        serialize.load_json_file(state_path, "state"), "state"
    )
    sym = classify_symmetry(state, tol=args.tol)
    payload = serialize.symmetry_to_json(sym)
    payload["tol"] = args.tol
    payload["version"] = __version__
    payload["inputs"] = _input_stamp(state=state_path)
    _emit(serialize.dumps_json(payload), args.output)
    return EXIT_PASS


def _write_transformed(state, eps: float, args, extra: dict) -> int:
    cov = build_covariance(state, eps)
    Path(args.output_state).write_text(
        serialize.dumps_json(serialize.state_to_json(state)), encoding="utf-8"
    )
    Path(args.output_covariance).write_text(
        serialize.dumps_json(serialize.covariance_to_json(cov)), encoding="utf-8"
    )
    payload = {
        "output_state": str(args.output_state),
        "output_covariance": str(args.output_covariance),
        "epsilon": eps,
        "version": __version__,
        **extra,
    }
    _emit(serialize.dumps_json(payload), None)
    return EXIT_PASS


def cmd_propagate(args) -> int:
    state_path = Path(args.state)
    ham_path = Path(args.hamiltonian)
    state = serialize.state_from_json(
        serialize.load_json_file(state_path, "state"), "state"
    )
    ham = serialize.hamiltonian_from_json(
        serialize.load_json_file(ham_path, "hamiltonian"), "hamiltonian"
    )
    channel = evolution_channel(ham, args.t)
    out = apply_to_state(channel, state)
    eps = _resolve_epsilon(args.epsilon, out)
    return _write_transformed(
        out,
        eps,
        args,
        {"t": args.t, "inputs": _input_stamp(state=state_path, hamiltonian=ham_path)},
    )


def cmd_channel(args) -> int:
    state_path = Path(args.state)
    state = serialize.state_from_json(
        serialize.load_json_file(state_path, "state"), "state"
    )
    if args.channel == "beamsplitter5050":
        dim = state.d1
        if state.d2 != dim or dim % 2 != 0:
            raise PcsftError(
                "field 'channel': beamsplitter5050 needs equal even dimensions"
            )
        u = np.kron(beamsplitter_unitary(), np.eye(dim // 2, dtype=complex))
        channel = UnitaryChannel(u1=u, u2=u)
        inputs = _input_stamp(state=state_path)
        inputs["channel"] = {"preset": "beamsplitter5050"}
    else:
        channel_path = Path(args.channel)
        channel = serialize.channel_from_json(
            serialize.load_json_file(channel_path, "channel"), "channel"
        )
        inputs = _input_stamp(state=state_path, channel=channel_path)
    out = apply_to_state(channel, state)
    eps = _resolve_epsilon(args.epsilon, out)
    return _write_transformed(out, eps, args, {"inputs": inputs})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_common_sampling(p)
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("experiment", help="run a turn-key experiment")
    p.add_argument("--experiment", required=True, choices=["beamsplitter"])
    p.add_argument("--statistics", required=True, choices=["boson", "fermion"])
    p.add_argument("--spin", default="0", choices=["0", "half"])
    _add_common_sampling(p)
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("classify", help="exchange-symmetry class of a state")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("propagate", help="evolve a state for time t")
    p.add_argument("state", help="state JSON file")
    p.add_argument("hamiltonian", help="hamiltonian JSON file ({H1, H2, hbar})")
    p.add_argument("--t", type=float, required=True, help="evolution time")
    p.add_argument("--epsilon", default="auto")
    p.add_argument("--output-state", default="state_out.json")
    p.add_argument("--output-covariance", default="covariance_out.json")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("channel", help="apply a factorized unitary channel")
    p.add_argument("state", help="state JSON file")
    p.add_argument(
        "channel", help="channel JSON file ({U1, U2}) or preset 'beamsplitter5050'"
    )
    p.add_argument("--epsilon", default="auto")
    p.add_argument("--output-state", default="state_out.json")
    p.add_argument("--output-covariance", default="covariance_out.json")
    p.set_defaults(func=cmd_channel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except PcsftError as exc:
        # Only build_covariance sets epsilon_min: --epsilon is below it.
        below = getattr(exc, "epsilon_min", None) is not None
        field = "field 'epsilon': " if below else ""
        print(f"error: {field}{exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
