"""Per-layer attribution from outside the program.

The benchmark wraps public functions of ``repro`` with timers instead of
editing the program: :class:`Recorder` replaces each function listed in
:data:`LAYERS` by a wrapper that records a span (layer, start, end, parent,
request id, thread) in memory.  A layer's *self* time is its span minus the
spans directly nested in it, so the named layers of one request add up to
its root span, and ``attributed_frac`` says how much of the root the named
layers explain.

A function that no longer exists is reported as ``missing``: nothing wraps
it, so its time stays in its parent's self time, and the metric that names
it reads 0.

Only requests the caller marks as traced are recorded (see
:func:`traced_request`); the untraced half runs through the same wrappers
and is the denominator of ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager

from common import median

#: (layer, module, attribute).  Every call site in ``repro`` looks these
#: up as module attributes at call time, which is what lets a wrapper
#: installed from outside see every call.
LAYERS = (
    ("ftsort", "repro.core.ftsort", "fault_tolerant_sort"),
    ("ftsort.plan", "repro.core.ftsort", "plan_partition"),
    ("plancache.sched", "repro.plancache.cache", "cached_ft_schedule"),
    ("plancache.compiled", "repro.plancache.cache", "cached_compiled_program"),
    ("schedule.lower", "repro.core.schedule", "lower_schedule"),
    ("blocks.pad", "repro.core.blocks", "pad_and_chunk"),
    ("blocks.strip", "repro.core.blocks", "strip_padding"),
    ("compiled.exec", "repro.kernels.compiled", "run_schedule_compiled"),
)

#: Server side only: one span per executed job, keyed by the job's seed.
JOB_LAYER = ("service.job", "repro.service.jobs", "run_job")

#: The request root every layer metric is reported against.
ROOT = "ftsort"

#: Per-layer metric -> the layer whose per-request self time it reports.
LAYER_METRICS = {
    "ftsort.plan_ms": "ftsort.plan",
    "plancache.sched_ms": "plancache.sched",
    "plancache.compiled_ms": "plancache.compiled",
    "schedule.lower_ms": "schedule.lower",
    "blocks.pad_ms": "blocks.pad",
    "blocks.strip_ms": "blocks.strip",
    "compiled.exec_ms": "compiled.exec",
    "ftsort.self_ms": "ftsort",
}


def traced_request(rid: int) -> bool:
    """Requests alternate in blocks of 8 between traced and untraced.

    Blocks, not single requests: lib-fresh-faults cycles its fault count
    with period 8, so both halves see every fault count.
    """
    return (rid >> 3) & 1 == 1


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, t0_ns, t1_ns, parent, rid, tid, id]
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self, with_jobs: bool = False) -> None:
        for layer, module, attr in LAYERS + ((JOB_LAYER,) if with_jobs else ()):
            try:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.missing.append(layer)
                continue
            wrapper = (self._wrap_job(layer, fn) if (layer, module, attr) == JOB_LAYER
                       else self._wrap(layer, fn))
            setattr(mod, attr, wrapper)
            self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    # -- recording -----------------------------------------------------------

    @contextmanager
    def request(self, rid: int, traced: bool):
        """Mark calls on this thread as belonging to request ``rid``."""
        local = self._local
        saved = (getattr(local, "rid", None), getattr(local, "traced", False))
        local.rid, local.traced = rid, traced
        try:
            yield
        finally:
            local.rid, local.traced = saved

    def _timed(self, layer: str, fn, args, kwargs):
        local = self._local
        if not getattr(local, "traced", False):
            return fn(*args, **kwargs)
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = [layer, time.perf_counter_ns(), 0, stack[-1][6] if stack else -1,
                local.rid, threading.get_native_id(), next(self._ids)]
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self._timed(layer, fn, args, kwargs)

        return timed

    def _wrap_job(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(spec, *args, **kwargs):
            rid = int(getattr(spec, "seed", 0))
            with self.request(rid, traced_request(rid)):
                return self._timed(layer, fn, (spec,) + args, kwargs)

        return timed

    def add(self, layer: str, t0: float, t1: float, rid: int) -> None:
        """Record a span measured by the caller (``perf_counter`` seconds)."""
        self.spans.append([layer, int(t0 * 1e9), int(t1 * 1e9), -1, rid,
                           threading.get_native_id(), next(self._ids)])

    def dump(self, path, pid: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": pid, "spans": self.spans, "missing": self.missing}, fh)


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns (duration minus direct children)."""
    out = {s[6]: s[2] - s[1] for s in spans}
    for s in spans:
        if s[3] in out:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, missing) -> dict[str, float]:
    """Per-request medians of every layer's self time, plus coverage.

    A request is a root (:data:`ROOT`) span's ``rid``; layers a request
    never entered count 0 for it.  ``attributed_frac`` is the share of the
    root's duration that named child layers account for.
    """
    selfs = self_times(spans)
    per_rid: dict = {}
    for s in spans:
        if s[4] is None:
            continue
        acc = per_rid.setdefault(s[4], {"_root_ns": 0})
        acc[s[0]] = acc.get(s[0], 0) + selfs[s[6]]
        if s[0] == ROOT:
            acc["_root_ns"] += s[2] - s[1]
    requests = [acc for acc in per_rid.values() if acc["_root_ns"] > 0]
    out = {}
    for metric, layer in LAYER_METRICS.items():
        out[metric] = (0.0 if layer in missing else
                       median(acc.get(layer, 0) / 1e6 for acc in requests))
    out["attributed_frac"] = median(
        1.0 - acc.get(ROOT, 0) / acc["_root_ns"] for acc in requests)
    return out


def self_time_table(spans) -> list[dict]:
    """One row per layer: calls, total and self ms, share of all self time."""
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s[0], {"layer": s[0], "calls": 0, "total_ms": 0.0,
                                     "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (s[2] - s[1]) / 1e6
        row["self_ms"] += selfs[s[6]] / 1e6
    whole = sum(r["self_ms"] for r in rows.values()) or 1.0
    for row in rows.values():
        row["self_share"] = row["self_ms"] / whole
    return sorted(rows.values(), key=lambda r: -r["self_ms"])


def chrome_trace(processes) -> list[dict]:
    """Chrome/Perfetto trace events for ``[(pid, name, spans), ...]``."""
    starts = [s[1] for _, _, spans in processes for s in spans]
    origin = min(starts) if starts else 0
    events: list[dict] = []
    for pid, name, spans in processes:
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": name}})
        selfs = self_times(spans)
        for s in spans:
            events.append({
                "ph": "X", "name": s[0], "pid": pid, "tid": s[5],
                "ts": (s[1] - origin) / 1e3, "dur": (s[2] - s[1]) / 1e3,
                "args": {"rid": s[4], "self_us": selfs[s[6]] / 1e3},
            })
    return events
