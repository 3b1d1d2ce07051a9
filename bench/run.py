"""pcsft benchmark: one workload, a closed loop with one client.

    python3 bench/run.py --workload beamsplitter-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, the run
length the bounds there were measured with.

Each request is a pcsft CLI argv; the next one starts when the previous
one has finished.  In-process workloads call ``pcsft.cli.main(argv)``;
cli-cold starts a fresh ``pcsft`` process per request.  Every output is
checked (exit code, ``pass``/``checks``, analytic values recomputed
here, byte identity of repeated argv).  The run always ends on a whole
cycle of the request mix.

``--trace 0`` prints the end-to-end metrics; their timings are divided
by the host speed that a calibration kernel, timed between cycles,
gives (``hostspeed.py``), and the raw figures are printed beside them.
``--trace 1`` alternates untraced and traced cycles, prints the
per-layer metrics (raw) and writes the spans to
``.bench_out/trace-<workload>-seed<seed>.json``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The run
exits 2 without that line when the pcsft sources are missing.
"""

import os

# Fixed for every commit, before numpy loads here or in a child: BLAS
# pools capped at one thread so that sampler workers plus BLAS threads
# stay within the CPU count, and the sampler left at its default worker
# count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("PCSFT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracer_mod  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("beamsplitter-mix", "verify-sweep", "cli-cold")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "success_frac": "frac",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (e.g. the pcsft sources are missing)."""


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so stamps compare across processes.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env(**extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(extra)
    return env


def import_cli():
    """Import pcsft.cli from the checkout's sources; return (module, ms)."""
    if not (SRC / "pcsft" / "cli.py").is_file():
        raise SetupError(f"no pcsft sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter_ns()
    import pcsft.cli as cli

    import_ms = (time.perf_counter_ns() - start) / 1e6
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise SetupError(f"pcsft.cli was imported from {cli.__file__}, not {SRC}")
    return cli, import_ms


def setup_probe(name: str, seed: int, workdir: Path) -> tuple:
    """Time a fresh interpreter until pcsft.cli is imported and inputs exist."""
    probe_dir = workdir / "probe"
    start = monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe", str(probe_dir)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    shutil.rmtree(probe_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise SetupError(f"setup probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    ready_ns, import_ms = proc.stdout.split()
    return (int(ready_ns) - start) / 1e9, float(import_ms)


def _median_ms(values) -> float:
    return statistics.median(values) / 1e6


def kind_p50_ms(records) -> float:
    """Per-kind median latency, averaged over kinds with equal weight.

    The mixes are multi-modal (boson/half costs twice fermion/0); a pooled
    median would sit in the gap between modes and jump with single
    outliers.  Each kind's median is robust, and every run holds whole
    cycles, so each kind has the same weight on every commit.
    """
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["latency_ns"])
    return statistics.fmean(_median_ms(v) for v in by_kind.values())


def tail_ms(records) -> tuple:
    """(latency, percentile): the highest percentile with TAIL_BEYOND requests above it."""
    lat = sorted(r["latency_ns"] for r in records)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1] / 1e6, 100.0
    return lat[n - TAIL_BEYOND - 1] / 1e6, 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    """Runs requests, checks every output and keeps the records."""

    def __init__(self, workload, cli, workdir: Path):
        self.workload = workload
        self.cli = cli
        self.workdir = workdir
        self.refs = {}
        self.records = []
        self.failures = []
        self.tracer = None
        self.spans = []
        self.absent = set()
        self.child_import_ms = []
        self.child_rss_kb = []

    def _in_process(self, req, traced):
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer if traced else None
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = self.cli.main(req.argv)
                else:
                    with tracer.span(tracer_mod.ROOT_SPAN):
                        code = self.cli.main(req.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a crash is a failed request
                code = f"raised {exc!r}"
        end = time.perf_counter_ns()
        return code, out.getvalue().encode("utf-8"), err.getvalue(), end - start

    def _cold(self, req, traced):
        sidecar = self.workdir / "sidecar.json"
        for path in (sidecar, *req.output_files):
            path.unlink(missing_ok=True)
        env = child_env(BENCH_SIDECAR=str(sidecar), BENCH_TRACE="1" if traced else "0")
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "cold_child.py"), *req.argv],
                cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"timed out after {CHILD_TIMEOUT_S} s", b"", "", time.perf_counter_ns() - start
        elapsed = time.perf_counter_ns() - start
        if sidecar.exists():
            side = json.loads(sidecar.read_text(encoding="utf-8"))
            self.child_import_ms.append(side["import_ms"])
            self.child_rss_kb.append(side["maxrss_kb"])
            self.absent.update(side["absent"])
            offset = len(self.spans)
            for span in side["spans"]:
                span[tracer_mod.PARENT] += offset if span[tracer_mod.PARENT] >= 0 else 0
                span[tracer_mod.REQUEST] = len(self.records)
                self.spans.append(span)
        return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace"), elapsed

    def trace_data(self) -> tuple:
        """(spans, sorted absent wrap targets) of the traced requests."""
        if self.workload.in_process:
            return self.tracer.spans, sorted(set(self.tracer.absent))
        return self.spans, sorted(self.absent)

    def run(self, req, traced: bool, timed: bool):
        if self.tracer is not None:
            self.tracer.request = len(self.records)
        call = self._in_process if self.workload.in_process else self._cold
        code, stdout, stderr, latency = call(req, traced)
        problems = []
        if code != 0:
            problems.append(f"exit code {code!r}; stderr: {stderr.strip()[-300:]!r}")
        files = {p: p.read_bytes() for p in req.output_files if p.exists()}
        problems += [f"missing output file {p}" for p in req.output_files if p not in files]
        try:
            problems += req.check(stdout, files)
        except Exception as exc:  # noqa: BLE001 - malformed output is a failed request
            problems.append(f"output check raised {exc!r}")
        digest = hashlib.sha256(stdout + b"".join(files[p] for p in req.output_files if p in files))
        ref = self.refs.setdefault(tuple(req.argv), digest.hexdigest())
        if ref != digest.hexdigest():
            problems.append("output bytes differ from the first run of this argv"
                            + (" (traced run)" if traced else ""))
        record = {"kind": req.kind, "argv": req.argv, "latency_ns": latency, "samples": req.samples,
                  "traced": traced, "timed": timed, "ok": not problems}
        self.records.append(record)
        if problems:
            self.failures.append((len(self.records) - 1, req, problems))

    def cycle(self, traced: bool, timed: bool, requests=None):
        if traced and self.workload.in_process:
            self.tracer.install()
        try:
            for req in requests or self.workload.cycle:
                self.run(req, traced, timed)
        finally:
            if traced and self.workload.in_process:
                self.tracer.uninstall()


def read_git_commit():
    # The ceiling keeps git from reporting a repository that merely encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return {k: deps[k].get("name", "") + " " + str(deps[k].get("version", "")) for k in ("blas", "lapack")}
        except Exception:  # noqa: BLE001 - provenance is best effort
            return None

    sampler = sys.modules.get("pcsft.sampler")
    resolve = getattr(sampler, "resolve_workers", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": THREAD_ENV,
        "sampler_workers": resolve() if callable(resolve) else None,
        "prng_id": getattr(sampler, "PRNG_ID", None),
        "git_commit": read_git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_workload(args) -> dict:
    import hostspeed
    import workloads

    workdir = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    calibrator = hostspeed.Calibrator()
    try:
        # A kernel pass before and after every setup probe and timed cycle.
        calibrator.measure()
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(setup_probe(args.workload, args.seed, workdir))
            calibrator.measure()
        cli, _ = import_cli()
        workload = workloads.build(args.workload, args.seed, workdir / "inputs")
        runner = Runner(workload, cli, workdir)
        if args.trace and workload.in_process:
            runner.tracer = tracer_mod.Tracer()

        runner.cycle(False, False, None if workload.in_process else workload.cycle[:1])
        calibrator.measure()
        deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
        cycles = []  # (first record, end record, seconds) of each untraced timed cycle
        while True:
            first, start = len(runner.records), time.perf_counter_ns()
            runner.cycle(False, True)
            cycles.append((first, len(runner.records), (time.perf_counter_ns() - start) / 1e9))
            if args.trace:
                runner.cycle(True, True)
            calibrator.measure()
            if time.perf_counter_ns() >= deadline:
                break
        prov = provenance()
    finally:
        calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    failed = len(runner.failures)
    untraced = [r for r in records if r["timed"] and not r["traced"]]
    traced = [r for r in records if r["timed"] and r["traced"]]
    result = {
        "workload": args.workload, "seed": args.seed, "cycles": len(cycles), "provenance": prov,
        "host": {"kernel_ms": statistics.median(calibrator.samples), "kernel_samples": len(calibrator.samples),
                 "ref_ms": hostspeed.REF_MS, "speed": calibrator.speed()},
        "attempted": len(records), "failed": failed, "failures": runner.failures,
        "setup_samples_s": [s for s, _ in setups],
    }
    if not args.trace:
        peak_kb = (max(runner.child_rss_kb) if runner.child_rss_kb
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        tail, pct = tail_ms(untraced)
        result["tail"] = {"percentile": pct, "requests": len(untraced)}
        cycle_samples = sum(r.samples for r in workload.cycle)
        result["raw"] = {
            "setup_s": statistics.median(s for s, _ in setups),
            "request_ms_p50": kind_p50_ms(untraced),
            "request_ms_tail": tail,
            "samples_per_s": statistics.median(cycle_samples / s for _, _, s in cycles),
        }
        # Each probe and cycle at the reference host speed, from the passes on either side; see hostspeed.py.
        probe_slow = [calibrator.between(j) for j in range(SETUP_PROBES)]
        cycle_slow = [calibrator.between(SETUP_PROBES + 1 + i) for i in range(len(cycles))]
        at_ref = [dict(r, latency_ns=r["latency_ns"] / slow)
                  for (first, end, _), slow in zip(cycles, cycle_slow) for r in records[first:end]]
        result["metrics"] = {
            "setup_s": statistics.median(s / slow for (s, _), slow in zip(setups, probe_slow)),
            "request_ms_p50": kind_p50_ms(at_ref),
            "request_ms_tail": tail_ms(at_ref)[0],
            "samples_per_s": statistics.median(cycle_samples / s * slow
                                               for (_, _, s), slow in zip(cycles, cycle_slow)),
            "peak_rss_mb": peak_kb / 1024,
            "success_frac": 1.0 - failed / len(records),
        }
        result["units"] = E2E_UNITS
    else:
        spans, absent = runner.trace_data()
        # cli-cold children start like a user's `pcsft`; the probes stand in for the rest.
        import_ms = statistics.median(runner.child_import_ms or [i for _, i in setups])
        overhead = kind_p50_ms(traced) / kind_p50_ms(untraced) - 1.0
        layers = tracer_mod.layer_metrics(spans, len(traced), absent, import_ms, overhead)
        result["metrics"] = {k: v for k, (v, _, _) in layers.items()}
        result["units"] = {k: u for k, (_, u, _) in layers.items()}
        result["status"] = {k: s for k, (_, _, s) in layers.items()}
        result["absent_targets"] = absent
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "provenance": prov,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "request", "attrs"],
            "requests": [{"id": i, "kind": r["kind"], "argv": r["argv"], "traced": r["traced"],
                          "latency_ms": r["latency_ns"] / 1e6} for i, r in enumerate(records)],
            "spans": spans, "absent_targets": absent,
        }), encoding="utf-8")
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def report(result: dict, trace: bool):
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for idx, req, problems in result["failures"]:
        print(f"FAIL request #{idx} [{req.kind}] pcsft {' '.join(req.argv)}")
        for p in problems:
            print(f"     {p}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {result['seed']}  {'traced' if trace else 'untraced'}"
          f"  cycles {result['cycles']}  requests {attempted}  failed {failed}")
    host = result["host"]
    print(f"host speed {host['speed']:.4f}: calibration kernel median {host['kernel_ms']:.2f} ms "
          f"over {host['kernel_samples']} passes, reference {host['ref_ms']} ms"
          + ("" if trace else "; timings below are at the reference speed, each probe and cycle scaled by"
                              " the passes on either side (raw in brackets)"))
    for name, value in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_PROBES} fresh interpreters"
        elif name == "request_ms_tail":
            note = f"p{result['tail']['percentile']:.1f} of {result['tail']['requests']} timed requests"
        elif name == "samples_per_s":
            note = "median over cycles"
        elif trace and result["status"][name] != "ok":
            note = result["status"][name]
        if not trace and name in result["raw"]:
            note = f"[{result['raw'][name]:.6g}] {note}"
        print(f"  {name:<32} {value:>14.6g} {result['units'][name]:<10} {note}")
    print(f"  {'failed_frac':<32} {failed / attempted:>14.6g} {'frac':<10} {failed}/{attempted}")
    if trace:
        if result["absent_targets"]:
            print("  absent wrap targets: " + ", ".join(result["absent_targets"]))
        print(f"  spans written to {result['trace_file']}")


def final_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def default_seconds() -> float:
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"no --seconds given and no run_seconds in BENCHMARK.json: {exc}") from exc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            _, import_ms = import_cli()
            import workloads

            workloads.build(args.workload, args.seed, Path(args.setup_probe))
            print(monotonic_ns(), import_ms)
            return 0
        if args.seconds is None:
            args.seconds = default_seconds()
        if args.workload == "all":
            return run_all(args)
        if not (SRC / "pcsft" / "cli.py").is_file():
            raise SetupError(f"no pcsft sources under {SRC}")
        result = run_workload(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(result, bool(args.trace))
    print(json.dumps(final_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
