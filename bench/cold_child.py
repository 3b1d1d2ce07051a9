"""Launcher for one cli-cold request: the ``pcsft`` console script.

Does what the generated ``pcsft`` entry point does (import
``pcsft.cli:main`` and exit with its return value), so the checkout's
sources run without an install.  It also times the import and, when
``BENCH_TRACE=1``, records spans; both go to the JSON file named by
``BENCH_SIDECAR`` together with the process's peak resident memory.
Nothing extra is written to stdout or stderr.

    BENCH_SIDECAR=side.json PYTHONPATH=src python3 bench/cold_child.py <pcsft args>
"""

import os
import sys
import time

_start = time.perf_counter_ns()
from pcsft.cli import main  # noqa: E402

_import_ns = time.perf_counter_ns() - _start


def peak_rss_kb(resource) -> int:
    # ru_maxrss keeps the launcher's peak from before exec; VmHWM is this image's own.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run() -> int:
    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if tracer is None:
            code = main()
        else:
            with tracer.span(ROOT_SPAN):
                code = main()
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()

    import json
    import resource

    sidecar = {
        "import_ms": _import_ns / 1e6,
        "maxrss_kb": peak_rss_kb(resource),
        "spans": tracer.spans if tracer else [],
        "absent": tracer.absent if tracer else [],
    }
    with open(os.environ["BENCH_SIDECAR"], "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
