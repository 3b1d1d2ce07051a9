"""Run the benchmark over several seeds and check that the figures are steady.

    python3 bench/steady.py collect --out .bench_out/a.json [--first-seed 1]
    python3 bench/steady.py compare .bench_out/a.json .bench_out/b.json

``collect`` runs ``bench/run.py --trace 0`` on every workload in
BENCHMARK.json, for its ``run_seconds``, once for each of ten seeds, and
stores every final line.  ``compare`` takes two such sets of the same
code and, against the bounds in BENCHMARK.json, names every workload and
metric whose spread (quartile distance over median) exceeds its bound in
either set, or whose two medians differ by more than the bound (as a
share of the first).  It exits 1 when any pair falls outside.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def collect(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    runs = {w["name"]: [] for w in spec["workloads"]}
    for name in runs:
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.splitlines()[-1])
            runs[name].append({"seed": seed, **last})
            figures = "  ".join(f"{k}={v['value']:.5g}" for k, v in last["metrics"].items())
            print(f"{name} seed {seed}: correct={last['correct']}  {figures}", flush=True)
    Path(args.out).write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1), encoding="utf-8")
    return 0


def summary(values) -> tuple:
    """(median, spread): spread is the quartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def compare(args) -> int:
    spec = load_spec()
    first = json.loads(Path(args.first).read_text(encoding="utf-8"))["runs"]
    second = json.loads(Path(args.second).read_text(encoding="utf-8"))["runs"]
    outside = []
    print(f"{'workload':<18} {'metric':<16} {'bound':>6} {'spread1':>8} {'spread2':>8} "
          f"{'median1':>12} {'median2':>12} {'change':>8}  verdict")
    for workload in first:
        if workload not in second:
            outside.append(f"{workload}: missing from the second set")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med1, sp1 = summary([r["metrics"][name]["value"] for r in first[workload]])
            med2, sp2 = summary([r["metrics"][name]["value"] for r in second[workload]])
            change = (med2 - med1) / med1
            problems = []
            if max(sp1, sp2) > bound:
                problems.append("spread above bound")
            if abs(change) > bound:
                problems.append("medians differ by more than bound")
            verdict = "; ".join(problems) or ("ok" if max(sp1, sp2) < bound / 3 else "ok (spread above bound/3)")
            print(f"{workload:<18} {name:<16} {bound:>6.3f} {sp1:>8.4f} {sp2:>8.4f} "
                  f"{med1:>12.6g} {med2:>12.6g} {change:>+8.4f}  {verdict}")
            outside += [f"{workload} {name}: {p}" for p in problems]
        failed = [r["seed"] for runs in (first[workload], second[workload]) for r in runs if not r["correct"]]
        if failed:
            outside.append(f"{workload}: incorrect output on seeds {failed}")
    for line in outside:
        print("OUTSIDE " + line)
    return 1 if outside else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run every workload over several seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.set_defaults(func=collect)
    p = sub.add_parser("compare", help="check two sets of runs against the bounds")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
