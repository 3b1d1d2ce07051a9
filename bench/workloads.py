"""Benchmark workloads: seeded inputs, request mixes and output checks.

Every request is a pcsft CLI argv.  The workload seed fixes the input
files and the ``--seed`` each argv passes; it never changes how much
work a request does, so runs with different seeds measure the same
thing.  Each request carries a check that recomputes the expected
analytic values independently of pcsft and returns a list of problems
(empty when the output is correct).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

FULL_SAMPLES = 200_000
COLD_SAMPLES = 20_000
ANALYTIC_TOL = 1e-9
G_TOL = 1e-12

# Round-robin order of the beam-splitter configurations.
EXPERIMENTS = (("fermion", "0"), ("boson", "0"), ("fermion", "half"), ("boson", "half"))

# g entries that vanish analytically; the other two equal 1/2.  Spin-0
# fermions anti-bunch and spin-0 bosons bunch; the spin-1/2 states carry
# an antisymmetric internal factor, which flips the spatial symmetry.
ZERO_G = {
    ("fermion", "0"): {"RR", "LL"},
    ("boson", "0"): {"RL", "LR"},
    ("fermion", "half"): {"RL", "LR"},
    ("boson", "half"): {"RR", "LL"},
}

Check = Callable[[bytes, dict], list]


@dataclass
class Request:
    kind: str  # requests of one kind do the same amount of work
    argv: list
    samples: int  # Monte Carlo samples the request asks for
    check: Check  # (stdout bytes, {path: bytes}) -> problems
    output_files: tuple = field(default=())


@dataclass
class Workload:
    name: str
    in_process: bool
    cycle: list  # one round of the request mix, in order


def _pairs(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(a)]


def _from_pairs(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def write_state(path: Path, amp: np.ndarray) -> str:
    return _write(path, {"d1": amp.shape[0], "d2": amp.shape[1], "amplitudes": _pairs(amp)})


def write_operator(path: Path, a: np.ndarray) -> str:
    return _write(path, {"rows": a.shape[0], "cols": a.shape[1], "entries": _pairs(a)})


def random_state(rng, d1: int, d2: int, symmetric: bool = False) -> np.ndarray:
    g = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    if symmetric:
        g = g + g.T
    return g / np.linalg.norm(g)


def random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def tensor_average(psi: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> float:
    """<A1 (x) A2 Psi, Psi> on the row-major flattened state vector."""
    v = psi.reshape(-1)
    return float(np.vdot(v, np.kron(a1, a2) @ v).real)


def _parse(stdout: bytes, problems: list):
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        problems.append(f"stdout is not UTF-8 JSON: {exc}")
        return None


def _pass_and_checks(payload: dict, problems: list, has_checks: bool):
    if payload.get("pass") is not True:
        problems.append(f"pass is {payload.get('pass')!r}")
    if not has_checks:
        return
    checks = payload.get("checks")
    if not isinstance(checks, dict) or not checks:
        problems.append(f"checks is {checks!r}")
    else:
        problems += [f"check {k} is {v!r}" for k, v in sorted(checks.items()) if v is not True]


def _close(name: str, got, want: float, tol: float, problems: list):
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        problems.append(f"{name} = {got!r}, expected {want!r} within {tol}")


def experiment_check(statistics: str, spin: str, samples: int) -> Check:
    zeros = ZERO_G[(statistics, spin)]

    def check(stdout: bytes, files: dict) -> list:
        problems = []
        payload = _parse(stdout, problems)
        if payload is None:
            return problems
        _pass_and_checks(payload, problems, has_checks=False)
        if (payload.get("statistics"), payload.get("spin")) != (statistics, spin):
            problems.append("report names the wrong configuration")
        if payload.get("n_samples") != samples:
            problems.append(f"n_samples = {payload.get('n_samples')!r}")
        g = payload.get("g", {})
        if set(g) != {"RR", "RL", "LR", "LL"}:
            return problems + [f"g has keys {sorted(g)}"]
        for key, entry in sorted(g.items()):
            if entry.get("passed") is not True:
                problems.append(f"g[{key}] failed its 5-SE gate")
            _close(f"g[{key}].analytic", entry.get("analytic"), 0.0 if key in zeros else 0.5, G_TOL, problems)
        return problems

    return check


def verify_check(expected: float, samples: int) -> Check:
    def check(stdout: bytes, files: dict) -> list:
        problems = []
        payload = _parse(stdout, problems)
        if payload is None:
            return problems
        _pass_and_checks(payload, problems, has_checks=True)
        for name in ("tensor", "trace", "analytic_cov"):
            _close(name, payload.get(name), expected, ANALYTIC_TOL, problems)
        if payload.get("n_samples") != samples:
            problems.append(f"n_samples = {payload.get('n_samples')!r}")
        return problems

    return check


def classify_check(expected_tag: str) -> Check:
    def check(stdout: bytes, files: dict) -> list:
        problems = []
        payload = _parse(stdout, problems)
        if payload is not None and payload.get("tag") != expected_tag:
            problems.append(f"tag = {payload.get('tag')!r}, expected {expected_tag!r}")
        return problems

    return check


def transformed_check(expected: np.ndarray, state_path: Path, cov_path: Path) -> Check:
    """Check channel/propagate outputs against U1 Psi U2^T computed here."""
    s = np.linalg.svd(expected, compute_uv=False)
    eps_min = float(max(0.0, np.max(s * (1.0 - s))))

    def check(stdout: bytes, files: dict) -> list:
        problems = []
        payload = _parse(stdout, problems)
        if payload is None:
            return problems
        try:
            state = json.loads(files[state_path].decode("utf-8"))
            cov = json.loads(files[cov_path].decode("utf-8"))
            amp = _from_pairs(state["amplitudes"])
            d12 = _from_pairs(cov["D12"])
            d11 = _from_pairs(cov["D11"])
            eps = float(cov["epsilon"])
        except (KeyError, TypeError, ValueError) as exc:
            return problems + [f"output files unreadable: {exc!r}"]
        if amp.shape != expected.shape or np.max(np.abs(amp - expected)) > ANALYTIC_TOL:
            problems.append("output state differs from U1 Psi U2^T")
        if d12.shape != expected.shape or np.max(np.abs(d12 - expected)) > ANALYTIC_TOL:
            problems.append("covariance D12 differs from the output state")
        if eps < eps_min - G_TOL:
            problems.append(f"epsilon {eps} below epsilon_min {eps_min}")
        want_d11 = expected @ expected.conj().T + eps * np.eye(expected.shape[0])
        if d11.shape != want_d11.shape or np.max(np.abs(d11 - want_d11)) > ANALYTIC_TOL:
            problems.append("covariance D11 differs from Psi Psi^dagger + epsilon I")
        if payload.get("epsilon") != eps:
            problems.append("stdout epsilon differs from the covariance file")
        return problems

    return check


def _expm_herm(h: np.ndarray, t: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * t * evals)[None, :]) @ evecs.conj().T


def _experiment_request(statistics: str, spin: str, seed: int, samples: int) -> Request:
    argv = [
        "experiment", "--experiment", "beamsplitter", "--statistics", statistics,
        "--spin", spin, "--samples", str(samples), "--seed", str(seed),
    ]
    return Request(f"experiment-{statistics}-{spin}", argv, samples,
                   experiment_check(statistics, spin, samples))


def _verify_request(rng, workdir: Path, tag: str, d1: int, d2: int, seed: int, samples: int) -> Request:
    psi = random_state(rng, d1, d2)
    a1 = random_hermitian(rng, d1)
    a2 = random_hermitian(rng, d2)
    argv = [
        "verify-identity",
        write_state(workdir / f"{tag}_state.json", psi),
        write_operator(workdir / f"{tag}_a1.json", a1),
        write_operator(workdir / f"{tag}_a2.json", a2),
        "--samples", str(samples), "--seed", str(seed),
    ]
    return Request(f"verify-{d1}x{d2}", argv, samples, verify_check(tensor_average(psi, a1, a2), samples))


def _program_seed(seed: int, i: int) -> int:
    return (seed * 7919 + i) % 2**32


def beamsplitter_mix(seed: int, workdir: Path) -> Workload:
    """The paper's headline experiment, all four configurations."""
    cycle = [
        _experiment_request(st, sp, _program_seed(seed, i), FULL_SAMPLES)
        for i, (st, sp) in enumerate(EXPERIMENTS)
    ]
    return Workload("beamsplitter-mix", True, cycle)


def verify_sweep(seed: int, workdir: Path) -> Workload:
    """Random dense observables on every (d1, d2) in {2,3,4}^2."""
    rng = np.random.default_rng([seed, 1])
    cycle = [
        _verify_request(rng, workdir, f"vs{d1}{d2}", d1, d2, _program_seed(seed, i), FULL_SAMPLES)
        for i, (d1, d2) in enumerate(itertools.product((2, 3, 4), repeat=2))
    ]
    return Workload("verify-sweep", True, cycle)


def cli_cold(seed: int, workdir: Path) -> Workload:
    """Every subcommand once per cycle, each in a fresh process."""
    rng = np.random.default_rng([seed, 2])
    cycle = [_verify_request(rng, workdir, "cold", 2, 3, _program_seed(seed, 0), COLD_SAMPLES)]
    cycle += [
        _experiment_request(st, sp, _program_seed(seed, 1 + i), COLD_SAMPLES)
        for i, (st, sp) in enumerate(EXPERIMENTS)
    ]
    sym = random_state(rng, 3, 3, symmetric=True)
    cycle.append(Request("classify", ["classify", write_state(workdir / "sym_state.json", sym)],
                         0, classify_check("Bosonic")))

    psi = random_state(rng, 4, 4)
    bs = np.kron(np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0), np.eye(2))
    out_state, out_cov = workdir / "channel_state.json", workdir / "channel_cov.json"
    argv = ["channel", write_state(workdir / "channel_in.json", psi), "beamsplitter5050",
            "--output-state", str(out_state), "--output-covariance", str(out_cov)]
    cycle.append(Request("channel", argv, 0, transformed_check(bs @ psi @ bs.T, out_state, out_cov),
                         (out_state, out_cov)))

    psi = random_state(rng, 2, 3)
    h1, h2, t = random_hermitian(rng, 2), random_hermitian(rng, 3), 0.7
    ham = {"H1": {"rows": 2, "cols": 2, "entries": _pairs(h1)},
           "H2": {"rows": 3, "cols": 3, "entries": _pairs(h2)}, "hbar": 1.0}
    expected = _expm_herm(h1, t) @ psi @ _expm_herm(h2, t).T
    out_state, out_cov = workdir / "prop_state.json", workdir / "prop_cov.json"
    argv = ["propagate", write_state(workdir / "prop_in.json", psi), _write(workdir / "ham.json", ham),
            "--t", str(t), "--output-state", str(out_state), "--output-covariance", str(out_cov)]
    cycle.append(Request("propagate", argv, 0, transformed_check(expected, out_state, out_cov),
                         (out_state, out_cov)))
    return Workload("cli-cold", False, cycle)


WORKLOADS = {
    "beamsplitter-mix": beamsplitter_mix,
    "verify-sweep": verify_sweep,
    "cli-cold": cli_cold,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
