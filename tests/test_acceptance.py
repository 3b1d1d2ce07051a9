"""Acceptance suite: every shipping criterion, one pass/fail line each."""

import json
import time

import numpy as np
import pytest

from pcsft.hilbert import (
    BipartiteState,
    marginal_average,
    quantum_average_tensor,
    quantum_average_trace,
)
from pcsft.covariance import (
    SymmetryTag,
    build_covariance,
    classify_symmetry,
    epsilon_min,
)
from pcsft.quadratic import (
    QuadraticForm,
    analytic_cov,
    form_moments,
    renormalized_mean,
)
from pcsft.channels import UnitaryChannel, apply_to_covariance, apply_to_state
from pcsft.experiments import beamsplitter_unitary, input_state, run_beamsplitter
from pcsft.cli import main
import conftest
from conftest import (
    bisect_epsilon_min,
    rand_selfadjoint,
    rand_state,
    rand_unitary,
    states_equal_up_to_phase,
)

C = 1.0 / np.sqrt(2.0)


def report_line(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number}: {detail}"


def random_triples(rng, count):
    for _ in range(count):
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(2, 7))
        yield (
            rand_state(rng, d1, d2),
            rand_selfadjoint(rng, d1),
            rand_selfadjoint(rng, d2),
        )


def test_criterion_1_operator_identity():
    rng = np.random.default_rng(2001)
    start = time.perf_counter()
    worst = 0.0
    for state, a1, a2 in random_triples(rng, 500):
        lhs = quantum_average_trace(state, a1, a2)
        rhs = quantum_average_tensor(state, a1, a2)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report_line(
        1,
        ok,
        f"trace vs tensor average on 500 random triples, max |diff| = "
        f"{worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_correlation_identity():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for state, a1, a2 in random_triples(rng, 500):
        cov = build_covariance(state, epsilon_min(state) + 0.05)
        value = analytic_cov(
            cov,
            QuadraticForm(operator=a1, side=1),
            QuadraticForm(operator=a2, side=2),
        )
        worst = max(worst, abs(value - quantum_average_tensor(state, a1, a2)))
    ok = worst <= 1e-10
    report_line(
        2,
        ok,
        f"analytic form covariance vs tensor average on 500 random triples, "
        f"max |diff| = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_3_monte_carlo_agreement():
    rng = np.random.default_rng(2003)
    start = time.perf_counter()
    n = 200_000
    cov_hits = 0
    mean_hits = 0
    exact_worst = 0.0
    cases = 50
    for i in range(cases):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        state = rand_state(rng, d1, d2)
        cov = build_covariance(state, epsilon_min(state) + 0.05)
        a1 = rand_selfadjoint(rng, d1)
        a2 = rand_selfadjoint(rng, d2)
        f1 = QuadraticForm(operator=a1, side=1)
        f2 = QuadraticForm(operator=a2, side=2)
        moments = form_moments(cov, seed=3000 + i, count=n, forms=[f1, f2])

        est = moments.cov(0, 1, analytic=analytic_cov(cov, f1, f2))
        cov_hits += est.within()

        form = f1 if rng.integers(2) == 0 else f2
        side = form.side
        a = a1 if side == 1 else a2
        mean_est = moments.mean(side - 1)
        renorm_mc = mean_est.value - cov.epsilon * np.trace(a).real
        target = marginal_average(state, a, side)
        mean_hits += abs(renorm_mc - target) <= 5.0 * mean_est.std_error
        exact_worst = max(
            exact_worst, abs(renormalized_mean(cov, form) - target)
        )
    elapsed = time.perf_counter() - start
    ok = cov_hits >= 49 and mean_hits >= 49 and exact_worst <= 1e-10 and elapsed < 60.0
    report_line(
        3,
        ok,
        f"MC covariance within 5 SE in {cov_hits}/{cases} (need >= 49), "
        f"renormalized means within 5 SE in {mean_hits}/{cases}, exact "
        f"renormalization defect {exact_worst:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (< 60s)",
    )


def _beamsplitter_criterion(number, statistics, zero_key, half_key):
    start = time.perf_counter()
    report = run_beamsplitter(statistics, spin="0", seed=4000, n_samples=200_000)
    elapsed = time.perf_counter() - start
    zero = report.g[zero_key]
    half = report.g[half_key]
    ok = (
        abs(zero.analytic) <= 1e-12
        and abs(half.analytic - 0.5) <= 1e-12
        and zero.within()
        and half.within()
        and elapsed < 10.0
    )
    name = "anti-bunching" if statistics == "fermion" else "bunching"
    report_line(
        number,
        ok,
        f"{statistics}/spin-0 {name}: analytic g_{zero_key} = "
        f"{zero.analytic:.2e}, g_{half_key} = {half.analytic:.12f}, MC "
        f"deviations {abs(zero.value - zero.analytic) / zero.std_error:.2f} "
        f"and {abs(half.value - half.analytic) / half.std_error:.2f} SE "
        f"(<= 5), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_4_anti_bunching():
    _beamsplitter_criterion(4, "fermion", "RR", "RL")


def test_criterion_5_bunching():
    _beamsplitter_criterion(5, "boson", "RL", "RR")


def test_criterion_6_spin_half_collisions():
    start = time.perf_counter()
    sb5 = run_beamsplitter("boson", spin="half", seed=4006, n_samples=200_000)
    sb5k = run_beamsplitter("fermion", spin="half", seed=4007, n_samples=200_000)
    elapsed = time.perf_counter() - start
    ok = (
        abs(sb5.g["RR"].analytic) <= 1e-12
        and sb5.g["RR"].within()
        and abs(sb5k.g["RL"].analytic) <= 1e-12
        and sb5k.g["RL"].within()
        and elapsed < 20.0
    )
    report_line(
        6,
        ok,
        f"spin-1/2 collisions: symmetric state g_RR = {sb5.g['RR'].analytic:.2e} "
        f"(MC {sb5.g['RR'].value:+.4f} +- {sb5.g['RR'].std_error:.4f}), "
        f"antisymmetric state g_RL = {sb5k.g['RL'].analytic:.2e} "
        f"(MC {sb5k.g['RL'].value:+.4f} +- {sb5k.g['RL'].std_error:.4f}), "
        f"{elapsed:.1f}s (< 20s)",
    )


def test_criterion_7_epsilon_positivity():
    rng = np.random.default_rng(2007)
    worst_gap = 0.0
    worst_eig = 0.0
    for _ in range(200):
        d1 = int(rng.integers(2, 6))
        d2 = int(rng.integers(2, 6))
        state = rand_state(rng, d1, d2)
        eps = epsilon_min(state)
        worst_gap = max(worst_gap, abs(eps - bisect_epsilon_min(state.amplitudes)))
        cov = build_covariance(state, eps)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(cov.assembled()).min()))
    ok = worst_gap <= 1e-8 and worst_eig >= -1e-10
    report_line(
        7,
        ok,
        f"epsilon_min vs bisection oracle on 200 random states, max gap "
        f"{worst_gap:.2e} (tol 1e-8); boundary covariance min eigenvalue "
        f"{worst_eig:.2e} (>= -1e-10)",
    )


def test_criterion_8_symmetry_suite():
    rng = np.random.default_rng(2008)
    bosonic = BipartiteState(np.array([[0.0, C], [C, 0.0]]))
    fermionic = BipartiteState(np.array([[0.0, C], [-C, 0.0]]))
    sym_b = classify_symmetry(bosonic, tol=1e-12)
    sym_f = classify_symmetry(fermionic, tol=1e-12)
    ok = (
        sym_b.tag is SymmetryTag.BOSONIC
        and sym_b.residual <= 1e-12
        and sym_f.tag is SymmetryTag.FERMIONIC
        and sym_f.residual <= 1e-12
    )
    for state, tag in ((bosonic, SymmetryTag.BOSONIC), (fermionic, SymmetryTag.FERMIONIC)):
        for _ in range(25):
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            shifted = BipartiteState(np.exp(1j * theta) * state.amplitudes)
            ok = ok and classify_symmetry(shifted, tol=1e-10).tag is tag
    report_line(
        8,
        ok,
        f"symmetric/antisymmetric fixtures classified with residuals "
        f"{sym_b.residual:.1e} and {sym_f.residual:.1e} (tol 1e-12); tags stable "
        f"under 50 random global phases",
    )


def test_criterion_9_channel_consistency():
    rng = np.random.default_rng(2009)
    worst = 0.0
    for _ in range(200):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        state = rand_state(rng, d1, d2)
        eps = epsilon_min(state) + 0.05
        ch = UnitaryChannel(u1=rand_unitary(rng, d1), u2=rand_unitary(rng, d2))
        via_cov = apply_to_covariance(ch, build_covariance(state, eps)).assembled()
        via_state = build_covariance(apply_to_state(ch, state), eps).assembled()
        worst = max(worst, float(np.max(np.abs(via_cov - via_state))))

    u = beamsplitter_unitary()
    bs = UnitaryChannel(u1=u, u2=u)
    boson_out = apply_to_state(bs, input_state("boson")).amplitudes
    boson_target = np.array([[C, 0.0], [0.0, -C]], dtype=complex)
    fermion_out = apply_to_state(bs, input_state("fermion")).amplitudes
    fermion_target = input_state("fermion").amplitudes
    ok = (
        worst <= 1e-10
        and states_equal_up_to_phase(boson_out, boson_target, tol=1e-12)
        and states_equal_up_to_phase(fermion_out, fermion_target, tol=1e-12)
    )
    report_line(
        9,
        ok,
        f"covariance path vs state path on 200 random channels, max |diff| = "
        f"{worst:.2e} (tol 1e-10); beam-splitter outputs match expected states "
        f"up to global phase (tol 1e-12)",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    singlet = BipartiteState(np.array([[0.0, C], [-C, 0.0]]))
    from pcsft import serialize

    state_path = tmp_path / "state.json"
    state_path.write_text(
        serialize.dumps_json(serialize.state_to_json(singlet)), encoding="utf-8"
    )
    a1 = tmp_path / "a1.json"
    a1.write_text(
        serialize.dumps_json(serialize.operator_to_json(np.diag([1.0, 0.0]))),
        encoding="utf-8",
    )
    a2 = tmp_path / "a2.json"
    a2.write_text(
        serialize.dumps_json(serialize.operator_to_json(np.diag([0.0, 1.0]))),
        encoding="utf-8",
    )

    verify_outputs = []
    for _ in range(2):
        code = main(
            [
                "verify-identity",
                str(state_path),
                str(a1),
                str(a2),
                "--seed",
                "77",
                "--samples",
                "50000",
            ]
        )
        assert code == 0
        verify_outputs.append(capsys.readouterr().out)

    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(
            [
                "experiment",
                "--experiment",
                "beamsplitter",
                "--statistics",
                "fermion",
                "--seed",
                "78",
                "--samples",
                "50000",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        reports.append(out.read_bytes())
    capsys.readouterr()

    ok = verify_outputs[0] == verify_outputs[1] and reports[0] == reports[1]
    numeric = json.loads(verify_outputs[0])
    report_line(
        10,
        ok,
        "repeated CLI runs byte-identical for verify-identity and experiment "
        f"(verify mc value {numeric['mc']['value']:.6f} reproduced)",
    )
