"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same requests, timed minutes apart, take up to a third longer, and
user CPU time rises with wall time, so the cores themselves run slower
(not steal).  A run therefore times a fixed kernel, written here
without pcsft, before and after every setup probe and timed cycle, and
divides what it timed there by the mean of the two passes over
``REF_MS``.  The kernel does what a pcsft request does at the same size
(Philox normal draws, a small complex matrix product, a quadratic form
over 200k rows, JSON emit and parse), so it slows with the host the way
the requests do.  No change to pcsft can move it.

The kernel runs in a helper process, started once per run, so that its
arrays never count in the run's peak resident memory.  The run waits
for each pass, so the two never compete for a core.

    python3 bench/hostspeed.py      # helper: one pass per input line, prints its ms
"""

import contextlib
import json
import statistics
import subprocess
import sys
import time

import numpy as np

# Median kernel time on the host the first result was recorded on
# (2 vCPUs, numpy 2.4.6 on scipy-openblas 0.3.31, BLAS threads 1).
# Fixed: changing it rescales every timing.
REF_MS = 65.0

_SEED = 20260101
_ROWS = 200_000
_M = (np.arange(16.0).reshape(4, 4) * (1 + 0.5j)) / 16
HELPER_TIMEOUT_S = 10


def kernel_ms() -> float:
    """One timed pass of the calibration kernel, in ms."""
    start = time.perf_counter_ns()
    rng = np.random.Generator(np.random.Philox(_SEED))
    z = rng.standard_normal((_ROWS, 8)).view(np.complex128)
    v = np.einsum("ij,ij->i", (z @ _M).conj(), z).real
    text = json.dumps({"rows": [[float(x), float(x) * 0.5] for x in v[:4000]], "sum": float(v.sum())})
    json.loads(text)
    return (time.perf_counter_ns() - start) / 1e6


class Calibrator:
    """Times kernel passes in the helper process and keeps every sample."""

    def __init__(self):
        self.samples = []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def measure(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with code {self._proc.wait()}")
        self.samples.append(float(line))

    def between(self, i: int) -> float:
        """Host slowness over what ran between passes i and i + 1: >1 is slower than at REF_MS."""
        return (self.samples[i] + self.samples[i + 1]) / 2 / REF_MS

    def speed(self) -> float:
        """Host slowness over the whole run."""
        return statistics.median(self.samples) / REF_MS

    def close(self):
        with contextlib.suppress(BrokenPipeError):  # the helper may have died mid-pass
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> int:
    kernel_ms()  # warm-up
    for _ in sys.stdin:
        print(kernel_ms(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
