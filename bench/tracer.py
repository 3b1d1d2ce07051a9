"""Span recorder for the traced benchmark run.

The tracer wraps public pcsft functions at the module attribute where a
caller looks them up at call time: ``pcsft.cli`` did ``from .sampler
import draw``, so ``pcsft.cli.draw`` is replaced, and ``draw`` calls
``factor_covariance`` through its own module globals, so
``pcsft.sampler.factor_covariance`` is replaced.  Each call records a
span ``[name, start_ns, end_ns, parent, request, attrs]``; a span's id
is its index in ``Tracer.spans``.  Spans stay in memory until the run
writes them out.

A target that no longer exists is recorded in ``Tracer.absent`` and
skipped, so a renamed or removed function makes its layer metrics
absent instead of stopping the run.  Wrappers only read the clock and
the call's arguments and result; they never change what the program
computes or prints.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _draw_attrs(args, kwargs, result):
    n, d1 = result.phi1.shape
    return {"samples": int(n), "dim": int(d1 + result.phi2.shape[1])}


def _eval_attrs(args, kwargs, result):
    form = kwargs["form"] if "form" in kwargs else args[0]
    batch = kwargs["batch"] if "batch" in kwargs else args[1]
    conj = kwargs.get("conjugate", args[2] if len(args) > 2 else False)
    op = form.operator
    return {
        "form": hashlib.sha1(op.tobytes()).hexdigest(),
        "side": int(form.side),
        "conj": bool(conj),
        "batch": id(batch),
        "samples": int(len(result)),
        "dim": int(op.shape[0]),
    }


def _emit_attrs(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, attribute extractor or None)
TARGETS = (
    ("pcsft.cli", "draw", "sampler.draw", _draw_attrs),
    ("pcsft.experiments", "draw", "sampler.draw", _draw_attrs),
    ("pcsft.sampler", "factor_covariance", "sampler.factor", None),
    ("pcsft.cli", "mc_cov", "quadratic.estimator", None),
    ("pcsft.experiments", "mc_cov", "quadratic.estimator", None),
    ("pcsft.quadratic", "eval_form_batch", "quadratic.eval", _eval_attrs),
    ("pcsft.cli", "run_beamsplitter", "experiments.run_beamsplitter", None),
    ("pcsft.cli", "quantum_average_tensor", "hilbert.average", None),
    ("pcsft.cli", "quantum_average_trace", "hilbert.average", None),
    ("pcsft.cli", "build_covariance", "covariance.build", None),
    ("pcsft.experiments", "build_covariance", "covariance.build", None),
    ("pcsft.cli", "epsilon_min", "covariance.epsilon_min", None),
    ("pcsft.experiments", "epsilon_min", "covariance.epsilon_min", None),
    ("pcsft.cli", "classify_symmetry", "covariance.classify", None),
    ("pcsft.experiments", "classify_symmetry", "covariance.classify", None),
    ("pcsft.cli", "apply_to_state", "channels.apply", None),
    ("pcsft.experiments", "apply_to_state", "channels.apply", None),
    ("pcsft.cli", "evolution_channel", "channels.evolution", None),
    ("pcsft.serialize", "load_json_file", "serialize.parse", None),
    ("pcsft.serialize", "state_from_json", "serialize.parse", None),
    ("pcsft.serialize", "operator_from_json", "serialize.parse", None),
    ("pcsft.serialize", "channel_from_json", "serialize.parse", None),
    ("pcsft.serialize", "hamiltonian_from_json", "serialize.parse", None),
    ("pcsft.serialize", "dumps_json", "serialize.dumps", _emit_attrs),
    ("pcsft.serialize", "estimate_to_json", "serialize.emit", None),
    ("pcsft.serialize", "report_to_json", "serialize.emit", None),
    ("pcsft.serialize", "symmetry_to_json", "serialize.emit", None),
    ("pcsft.serialize", "state_to_json", "serialize.emit", None),
    ("pcsft.serialize", "covariance_to_json", "serialize.emit", None),
)

ROOT_SPAN = "cli.main"

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    """Records spans from wrapped pcsft functions into memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.absent: list[str] = []
        self._installed: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.request, None])
        stack.append(idx)
        return idx

    def _close(self, idx: int, start: int, end: int):
        self._stack().pop()
        span = self.spans[idx]
        span[START] = start
        span[END] = end

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (the benchmark's root spans)."""
        idx = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter_ns())

    def _wrap(self, fn, name: str, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter_ns())
            if attrs_of is not None:
                try:
                    self.spans[idx][ATTRS] = attrs_of(args, kwargs, result)
                except Exception:  # noqa: BLE001 - a changed signature must not stop the run
                    self.spans[idx][ATTRS] = {"error": True}
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; record the missing ones."""
        self.absent = []
        for module_name, attr, name, attrs_of in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, attrs_of))
            self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


# Per-layer metrics: name -> (unit, span names whose wrap targets it needs).
LAYER_METRICS = {
    "sampler.draw_calls": ("count/req", ("sampler.draw",)),
    "sampler.samples": ("count/req", ("sampler.draw",)),
    "sampler.draw_busy_ms": ("ms/req", ("sampler.draw",)),
    "sampler.ns_per_sample_mode": ("ns", ("sampler.draw",)),
    "sampler.factor_busy_ms": ("ms/req", ("sampler.factor",)),
    "sampler.bytes_out_computed": ("B/req", ("sampler.draw",)),
    "quadratic.form_evals": ("count/req", ("quadratic.eval",)),
    "quadratic.eval_busy_ms": ("ms/req", ("quadratic.eval",)),
    "quadratic.estimator_self_ms": ("ms/req", ("quadratic.estimator",)),
    "quadratic.bytes_read_computed": ("B/req", ("quadratic.eval",)),
    "quadratic.eval_useful_ratio": ("ratio", ("quadratic.eval",)),
    "experiments.self_ms": ("ms/req", ("experiments.run_beamsplitter",)),
    "hilbert.calls": ("count/req", ("hilbert.average",)),
    "hilbert.busy_ms": ("ms/req", ("hilbert.average",)),
    "covariance.calls": (
        "count/req",
        ("covariance.build", "covariance.epsilon_min", "covariance.classify"),
    ),
    "covariance.busy_ms": (
        "ms/req",
        ("covariance.build", "covariance.epsilon_min", "covariance.classify"),
    ),
    "channels.calls": ("count/req", ("channels.apply", "channels.evolution")),
    "channels.busy_ms": ("ms/req", ("channels.apply", "channels.evolution")),
    "cli.import_ms": ("ms", ()),
    "cli.main_self_ms": ("ms/req", (ROOT_SPAN,)),
    "serialize.parse_ms": ("ms/req", ("serialize.parse",)),
    "serialize.emit_ms": ("ms/req", ("serialize.emit", "serialize.dumps")),
    "serialize.emit_bytes": ("B/req", ("serialize.dumps",)),
    "trace.overhead_frac": ("frac", ()),
}


def absent_span_names(absent_targets) -> set[str]:
    """Span names none of whose wrap targets could be installed."""
    present = defaultdict(bool)
    missing = set(absent_targets)
    for module_name, attr, name, _ in TARGETS:
        present[name] |= f"{module_name}.{attr}" not in missing
    return {name for name, ok in present.items() if not ok}


def _busy_ns(spans, names) -> int:
    """Wall time inside spans of ``names``, counting nested ones once."""
    total = 0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += span[END] - span[START]
    return total


def _self_ns(spans, names) -> int:
    """Duration of spans of ``names`` minus that of their direct children."""
    child_ns = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    return sum(
        span[END] - span[START] - child_ns[i]
        for i, span in enumerate(spans)
        if span[NAME] in names
    )


def layer_metrics(spans, requests: int, absent_targets, import_ms, overhead_frac):
    """Per-layer metrics over ``requests`` traced requests.

    Returns name -> (value, unit, status); status is "ok", "absent" (the
    wrapped function no longer exists or its arguments could not be read)
    or "not run" (the layer was not called on this workload).  Absent and
    not-run metrics carry the value 0.
    """
    gone = absent_span_names(absent_targets)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)

    def attrs_ok(name):
        return all(s[ATTRS] is not None and "error" not in s[ATTRS] for s in by_name[name])

    draws = by_name["sampler.draw"]
    evals = by_name["quadratic.eval"]
    per = 1.0 / max(requests, 1)
    ms = 1e-6 * per
    values = {
        "sampler.draw_calls": len(draws) * per,
        "sampler.draw_busy_ms": _busy_ns(spans, {"sampler.draw"}) * ms,
        "sampler.factor_busy_ms": _busy_ns(spans, {"sampler.factor"}) * ms,
        "quadratic.form_evals": len(evals) * per,
        "quadratic.eval_busy_ms": _busy_ns(spans, {"quadratic.eval"}) * ms,
        "quadratic.estimator_self_ms": _self_ns(spans, {"quadratic.estimator"}) * ms,
        "experiments.self_ms": _self_ns(spans, {"experiments.run_beamsplitter"}) * ms,
        "cli.main_self_ms": _self_ns(spans, {ROOT_SPAN}) * ms,
        "serialize.parse_ms": _busy_ns(spans, {"serialize.parse"}) * ms,
        "serialize.emit_ms": _busy_ns(spans, {"serialize.emit", "serialize.dumps"}) * ms,
        "cli.import_ms": import_ms,
        "trace.overhead_frac": overhead_frac,
    }
    for layer in ("hilbert", "covariance", "channels"):
        names = set(LAYER_METRICS[f"{layer}.calls"][1])
        values[f"{layer}.calls"] = sum(len(by_name[n]) for n in names) * per
        values[f"{layer}.busy_ms"] = _busy_ns(spans, names) * ms
    if attrs_ok("sampler.draw"):
        mode_samples = sum(s[ATTRS]["samples"] * s[ATTRS]["dim"] for s in draws)
        values["sampler.samples"] = sum(s[ATTRS]["samples"] for s in draws) * per
        values["sampler.bytes_out_computed"] = 16 * mode_samples * per
        values["sampler.ns_per_sample_mode"] = (
            _busy_ns(spans, {"sampler.draw"}) / mode_samples if mode_samples else 0.0
        )
    if attrs_ok("quadratic.eval"):
        values["quadratic.bytes_read_computed"] = (
            16 * sum(s[ATTRS]["samples"] * s[ATTRS]["dim"] for s in evals) * per
        )
        distinct = {
            (s[REQUEST], s[ATTRS]["batch"], s[ATTRS]["form"], s[ATTRS]["side"], s[ATTRS]["conj"])
            for s in evals
        }
        values["quadratic.eval_useful_ratio"] = len(distinct) / len(evals) if evals else 0.0
    if attrs_ok("serialize.dumps"):
        values["serialize.emit_bytes"] = sum(s[ATTRS]["bytes"] for s in by_name["serialize.dumps"]) * per

    out = {}
    for metric, (unit, needs) in LAYER_METRICS.items():
        if metric not in values or (needs and all(n in gone for n in needs)):
            out[metric] = (0.0, unit, "absent")
        elif needs and not any(by_name[n] for n in needs):
            out[metric] = (0.0, unit, "not run")
        else:
            out[metric] = (float(values[metric]), unit, "ok")
    return out
