"""Span tracer for the traced run, and the per-layer metrics drawn from it.

The tracer times calls into each layer from outside the program: it
replaces the names each ``singlet_lhv`` module imports from the next one
(``singlet_lhv.cli.scan_correlation``, ``singlet_lhv.harness.b_frame_coordinate``,
``singlet_lhv.hidden_values.quad``, ...) by timing wrappers, and puts the
originals back on ``uninstall``.  No file of the program is edited.

Each call records a span: id, parent span, name (``caller>callee``),
layer of the callee, start and end (perf_counter_ns), thread, run id
(the command index) and, for the Monte Carlo kernels, the number of
elements it processed.  Worker-thread spans stay on their own thread;
their parent is the ``_map_streams`` span that started them.  A layer's
self time is its span minus its child spans on the same thread.

Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# (calling module, imported name, layer of the callee)
WRAPPED = (
    ("cli", "bell_inequality_sides", "analytic"),
    ("cli", "bell_violation_map", "analytic"),
    ("cli", "chsh_value", "analytic"),
    ("cli", "correlation", "analytic"),
    ("cli", "transform_curve", "analytic"),
    ("cli", "estimate_chsh", "harness"),
    ("cli", "run_weihs_zeilinger", "harness"),
    ("cli", "scan_correlation", "harness"),
    ("cli", "verify_weak_value_match", "hidden_values"),
    ("cli", "wrap_angle", "model"),
    ("cli", "bell_state", "quantum"),
    ("cli", "load_operator", "quantum"),
    ("cli", "path_ensemble", "quantum"),
    ("harness", "correlation", "analytic"),
    ("harness", "b_frame_coordinate", "model"),
    ("harness", "circle_transform_n", "model"),
    ("harness", "response", "model"),
    ("harness", "sample_orientations", "model"),
    ("harness", "wrap_angle", "model"),
    ("hidden_values", "quad", "scipy"),
    ("hidden_values", "orientation_cdf", "model"),
    ("hidden_values", "wrap_angle", "model"),
    ("hidden_values", "bell_state", "quantum"),
    ("hidden_values", "polarization_operator", "quantum"),
    ("hidden_values", "polarization_operator_b", "quantum"),
    ("hidden_values", "weak_value", "quantum"),
    ("quantum", "wrap_angle", "model"),
    ("analytic", "circle_transform_n", "model"),
    ("analytic", "linear_reference", "model"),
    ("analytic", "wrap_angle", "model"),
)

# Element counts for the Monte Carlo kernels: sample_orientations(rng, size, n)
# takes a count, the others an array.
SIZED = {
    "harness>sample_orientations": lambda args: int(args[1]),
    "harness>b_frame_coordinate": lambda args: int(np.size(args[0])),
    "harness>circle_transform_n": lambda args: int(np.size(args[0])),
    "harness>response": lambda args: int(np.size(args[0])),
    "harness>wrap_angle": lambda args: int(np.size(args[0])),
}

MAP_STREAMS = "harness>_map_streams"
WORKER = "harness>worker"
TOP = "client>main"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    layer: str
    start: int
    end: int
    thread: int
    run: int
    size: int
    cpu: float

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self._records = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records]

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name, layer, cause=None, cpu=False):
        """fn timed as a span; ``cause`` is the parent when this thread has none open."""
        size_of = SIZED.get(name)
        records, ids, stack_of = self._records, self._ids, self._stack
        clock, get_ident = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else cause
            span_id = next(ids)
            stack.append(span_id)
            cpu0 = time.process_time() if cpu else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                used = time.process_time() - cpu0 if cpu else 0.0
                stack.pop()
                size = size_of(args) if size_of else 0
                records.append((span_id, parent, name, layer, start, end, get_ident(), self.run, size, used))

        return traced

    def _hook_map_streams(self, original):
        """Wrap each stream worker so its span lands on the worker thread."""

        def hooked(worker, assignments):
            cause = self._stack()[-1]
            return original(self.wrap(worker, WORKER, "harness", cause=cause), assignments)

        return self.wrap(hooked, MAP_STREAMS, "harness")

    def install(self):
        for caller, attr, layer in WRAPPED:
            module = importlib.import_module(f"singlet_lhv.{caller}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapped = self.wrap(original, f"{caller}>{attr}", layer, cpu=caller == "cli" and layer == "harness")
            setattr(module, attr, wrapped)
        harness = importlib.import_module("singlet_lhv.harness")
        self._saved.append((harness, "_map_streams", harness._map_streams))
        harness._map_streams = self._hook_map_streams(harness._map_streams)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            out.writerows(self._records)


def self_times(spans):
    """Span id -> duration minus child spans on the same thread (ns)."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(int)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[parent.id] += s.duration
    return {s.id: s.duration - children[s.id] for s in spans}


def _per(num, den, scale=1.0):
    """num / den / scale, or None when nothing was measured (den == 0)."""
    return num / den / scale if den else None


def layer_metrics(spans, sequences, commands):
    """Per-layer metrics over the traced sequences (values, not units).

    A time or ratio over calls that never happened is None; a count of
    nothing is 0.
    """
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name, field="duration"):
        return sum(getattr(s, field) for s in named[name])

    def per_elem(name):
        return _per(total(name), total(name, "size"))

    def per_call(name, scale):
        return _per(total(name), len(named[name]), scale)

    reports = len(named["cli>verify_weak_value_match"])
    harness_self = [own[s.id] for s in spans if s.layer == "harness" and s.name != MAP_STREAMS]
    top_harness = [s for s in spans if s.name.startswith("cli>") and s.layer == "harness"]
    analytic_calls = [s for s in spans if s.name.startswith("cli>") and s.layer == "analytic"]
    samples = named["harness>sample_orientations"]
    return {
        "cli.self_ms_per_call": _per(sum(own[s.id] for s in named[TOP]), commands, 1e6),
        "harness.self_s": _per(sum(harness_self), sequences if harness_self else 0, 1e9),
        "harness.cpu_per_wall": _per(sum(s.cpu for s in top_harness), sum(s.duration for s in top_harness) / 1e9),
        "harness.max_block_trials": max((s.size for s in samples), default=0),
        "harness.trials": sum(s.size for s in samples) / sequences,
        "model.sample.ns_per_trial": per_elem("harness>sample_orientations"),
        "model.frame.ns_per_eval": per_elem("harness>b_frame_coordinate"),
        "model.frame.evals": total("harness>b_frame_coordinate", "size") / sequences,
        "model.response.ns_per_eval": per_elem("harness>response"),
        "model.frame_vec.ns_per_eval": per_elem("harness>circle_transform_n"),
        "model.wrap.ns_per_elem": per_elem("harness>wrap_angle"),
        "hidden_values.self_ms_per_report": _per(
            sum(own[s.id] for s in spans if s.layer == "hidden_values"), reports, 1e6
        ),
        "hidden_values.quad_ms_per_report": _per(total("hidden_values>quad"), reports, 1e6),
        "hidden_values.quad_calls_per_report": _per(len(named["hidden_values>quad"]), reports) or 0,
        "quantum.weak_value.us_per_call": per_call("hidden_values>weak_value", 1e3),
        "quantum.weak_value.calls_per_report": _per(len(named["hidden_values>weak_value"]), reports) or 0,
        "quantum.paths.ms_per_call": per_call("cli>path_ensemble", 1e6),
        "analytic.ms_per_call": _per(sum(s.duration for s in analytic_calls), len(analytic_calls), 1e6),
    }
