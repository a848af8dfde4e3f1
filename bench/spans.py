"""In-memory span recorder for the traced benchmark run.

``Recorder.install`` wraps the public functions and public-class methods of
every stablecomp module.  A name bound into another module with
``from .x import y`` is wrapped there too, so every place the name is looked
up records a span.  Late imports (``from .oracle2d import density_2d`` inside
a function body) read the wrapped attribute of the source module.

A span holds its name, layer (the module), start, end, parent span and op
id.  Spans stay in memory until the run ends.  A layer's self time is the
span duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "verify", "spectral", "sampling", "moments", "homogeneous",
          "fourier_pd", "oracle2d")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str | None
    counts: dict = field(default_factory=dict)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    A span whose parent is None or not among ``spans`` is a root: it is
    subtracted from nothing.
    """
    ids = {s.id for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in ids:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - union_length(children[s.id], s.start, s.end)
            for s in spans}


# Counts taken where the work happens: name -> fn(bound arguments, result).
def _mc_counts(arguments, result):
    return {"variates": int(arguments["N"]) * arguments["rep"].m,
            "mom": int(result.estimator == "median-of-means")}


def _points(arguments, result):
    return {"points": int(result.shape[0])}


def _density_counts(arguments, result):
    cells = result.M ** 2
    # computed from array sizes: per cell one float64 phase sum per atom,
    # the characteristic function, the complex spectrum and the real density
    return {"cells": cells, "bytes": cells * 8 * (result.rep.m + 1 + 2 + 1)}


COUNTERS = {
    "moments.mc_expectation": _mc_counts,
    "homogeneous.evaluate_many": _points,
    "fourier_pd.pd_check": lambda a, r: {"evaluations": r.evaluations},
    "oracle2d.density_2d": _density_counts,
    "verify.run_experiment": lambda a, r: {"records": len(r.records)},
}


class Recorder:
    """Records spans while installed; ``uninstall`` restores every patch."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._patches = []
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, name, layer, time.perf_counter(), 0.0,
                    stack[-1].id if stack else None, self.op)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
                return result
            finally:
                self.end(span)
        return wrapper

    def install(self, package) -> None:
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        originals = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for pub in getattr(mod, "__all__", ["main"]):
                obj = getattr(mod, pub)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{pub}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{layer}.{pub}", layer)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapped = originals.get(id(val))
                if wrapped is not None and wrapped.__wrapped__ is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapped)

    def _wrap_methods(self, cls, qual: str, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(val.__func__, f"{qual}.{attr}", layer))
            elif inspect.isfunction(val):
                new = self._wrap(val, f"{qual}.{attr}", layer)
            else:
                continue
            self._patches.append((cls, attr, val))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()


# Public functions whose own calls and self time are reported beside their
# layer's totals.
REPORTED = ("moments.mc_expectation", "moments.levy_expectation",
            "homogeneous.evaluate_many", "fourier_pd.pd_check", "fourier_pd.pd_action",
            "oracle2d.density_2d", "oracle2d.oracle_expectation", "verify.random_rep")
OP_LAYER = "bench"   # the harness's span around each op


def span_metrics(spans) -> dict:
    """Flat per-layer metrics of a traced run.

    Calls and self seconds for every layer and for each ``REPORTED`` name,
    the counts of ``COUNTERS``, and the ratios derived from them (None where
    the layer is idle).  ``trace.layer_share_min`` is the smallest share of
    an op span's duration that layer spans cover.
    """
    selfs = self_times(spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    durations, counts = defaultdict(list), defaultdict(int)
    for s in spans:
        for key in (s.layer, s.name):
            calls[key] += 1
            self_s[key] += selfs[s.id]
        durations[s.name].append(s.end - s.start)
        for key, val in s.counts.items():
            counts[f"{s.name}.{key}"] += val
    out = {}
    for key in LAYERS + REPORTED:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = self_s[key]

    def ratio(a, b):
        return a / b if b else None

    mc, dens = "moments.mc_expectation", "oracle2d.density_2d"
    out.update({
        f"{mc}.variates": counts[f"{mc}.variates"],
        f"{mc}.ns_per_variate": ratio(self_s[mc] * 1e9, counts[f"{mc}.variates"]),
        "moments.mom_share": ratio(counts[f"{mc}.mom"], calls[mc]),
        "homogeneous.evaluate_many.points": counts["homogeneous.evaluate_many.points"],
        "homogeneous.checks.self_s": (self_s["homogeneous.check_homogeneity"]
                                      + self_s["homogeneous.check_block_symmetry"]),
        "fourier_pd.pd_check.evaluations": counts["fourier_pd.pd_check.evaluations"],
        f"{dens}.cells": counts[f"{dens}.cells"],
        f"{dens}.ns_per_cell": ratio(self_s[dens] * 1e9, counts[f"{dens}.cells"]),
        f"{dens}.bytes_computed": counts[f"{dens}.bytes"],
        "oracle2d.oracle_expectation.s_p50": (
            statistics.median(durations["oracle2d.oracle_expectation"])
            if durations["oracle2d.oracle_expectation"] else None),
        "verify.records": counts["verify.run_experiment.records"],
        "trace.layer_share_min": min(
            (1.0 - selfs[s.id] / (s.end - s.start) for s in spans if s.layer == OP_LAYER),
            default=None),
    })
    return out
