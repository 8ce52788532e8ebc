"""Job execution: module-level (picklable) runners for every job kind.

These functions are the unit the server ships to an executor — the inline
single-thread executor in the default configuration, or a worker process
of the shared warm pool (:func:`repro.parallel.warm_pool`) when the server
runs with ``jobs > 1``.  Everything they need travels inside the
:class:`~repro.service.protocol.JobSpec`; everything they produce comes
back as a JSON-ready dict, so the same code path serves both executors.

Each job measures its own plan-cache traffic as a before/after delta of
:data:`repro.plancache.PLAN_CACHE` stats — computed *where the job ran*,
so the attribution is exact in the inline executor (one job at a time) and
exact per worker process in the pool (each worker owns its process-global
cache, kept warm across jobs by the persistent pool).  The server folds
these deltas into per-tenant ``service.tenant.<t>.plancache.*`` counters:
the cross-tenant sharing the cache exists for becomes directly observable
as tenant B hitting on plans tenant A paid for.

A failing job is a *result*, not a server error: the runner catches the
exception and reports ``ok: false`` with the error repr, exactly like the
chaos campaign's outcome convention.
"""

from __future__ import annotations

import base64
import time

import numpy as np

from repro.plancache import PLAN_CACHE
from repro.service.protocol import JobSpec

__all__ = ["run_job", "run_job_batch", "run_job_batch_shm"]

def _run_sort(spec: JobSpec) -> dict:
    from repro.core.ftsort import fault_tolerant_sort
    from repro.core.spmd_sort import spmd_fault_tolerant_sort

    rng = np.random.default_rng(spec.seed)
    keys = rng.integers(0, 10**6, size=spec.keys).astype(float)
    if spec.backend == "spmd":
        res = spmd_fault_tolerant_sort(keys, spec.n, list(spec.faults),
                                       kernels=spec.kernels)
        elapsed = res.finish_time
    else:
        res = fault_tolerant_sort(keys, spec.n, list(spec.faults),
                                  kernels=spec.kernels)
        elapsed = res.elapsed
    expected = np.sort(keys)
    out = {
        "kind": "sort",
        "verified": bool(np.array_equal(res.sorted_keys, expected)),
        "elapsed_sim": float(elapsed),
        "checksum": float(res.sorted_keys.sum()),
        "keys": int(keys.size),
    }
    if spec.stream:
        # The array itself: an arena-dispatching server lifts it into the
        # shm segment (pack sees a big contiguous ndarray leaf) and
        # streams frames from there without ever copying it out.
        out["sorted_keys"] = np.ascontiguousarray(res.sorted_keys,
                                                  dtype=np.float64)
    elif spec.return_keys:
        # The pickled baseline: the whole array rides the result inline
        # as base64 text (one giant JSONL line at the client).
        data = np.ascontiguousarray(res.sorted_keys, dtype=np.float64)
        out["keys_b64"] = base64.b64encode(data.tobytes()).decode("ascii")
    return out


def _run_plan(spec: JobSpec) -> dict:
    from repro.core.ftsort import plan_partition

    partition, selection = plan_partition(spec.n, list(spec.faults))
    out = {"kind": "plan", "mincut": int(partition.mincut),
           "sequences": len(partition.cutting_set)}
    if partition.mincut:
        out["cut_dims"] = list(selection.cut_dims)
        out["cost"] = selection.cost
    return out


def _run_chaos(spec: JobSpec) -> dict:
    from dataclasses import replace

    from repro.chaos.campaign import run_scenario
    from repro.chaos.schedule import random_scenario

    scenario = random_scenario(
        spec.index, spec.seed, fault_classes=(spec.fault_class,)
    )
    if spec.fault_params:
        # Explicit severity overrides replace the stratified draw.
        scenario = replace(scenario, fault_params=spec.fault_params)
    outcome = run_scenario(scenario)
    return {
        "kind": "chaos",
        "passed": outcome.passed,
        "recoveries": outcome.recoveries,
        "total_time": float(outcome.total_time),
        "error": outcome.error,
        "fault_class": scenario.fault_class,
        "oracle": dict(outcome.oracle),
    }


_RUNNERS = {"sort": _run_sort, "plan": _run_plan, "chaos": _run_chaos}


def run_job(spec: JobSpec) -> dict:
    """Execute one job; never raises.

    Returns:
        ``{"ok": bool, "result": dict, "run_ms": float, "plancache":
        {"hits": int, "misses": int}}`` — ``result`` carries the error repr
        when ``ok`` is false.
    """
    before = PLAN_CACHE.stats()
    t0 = time.perf_counter()
    try:
        result = _RUNNERS[spec.kind](spec)
        ok = True
    except Exception as exc:
        result = {"kind": spec.kind, "error": f"{type(exc).__name__}: {exc}"}
        ok = False
    run_ms = (time.perf_counter() - t0) * 1e3
    after = PLAN_CACHE.stats()
    return {
        "ok": ok,
        "result": result,
        "run_ms": run_ms,
        "plancache": {
            "hits": after["total_hits"] - before["total_hits"],
            "misses": after["total_misses"] - before["total_misses"],
        },
    }


def run_job_batch(specs: tuple[JobSpec, ...]) -> list[dict]:
    """Execute a compatible batch back-to-back in one executor round-trip.

    The first job of a sort/plan batch pays the planning work; the rest
    replay it from the (by then warm) cache — their ``plancache`` deltas
    show the hits.
    """
    return [run_job(spec) for spec in specs]


def run_job_batch_shm(specs: tuple[JobSpec, ...],
                      name: str | None = None) -> tuple:
    """:func:`run_job_batch`, returning bulk payloads through a shm arena.

    Two callers: the server's ``executor="shm"`` tier (compact payloads —
    small batches come back ``("inline", ...)`` untouched) and *any*
    batch containing a streamed sort, whose ``sorted_keys`` array must
    land in a segment the server can stream frames from without copying.
    ``name`` is the parent-chosen (pre-registered) segment name; when
    omitted a worker-side name is minted.  If the worker dies before the
    server consumes the segment, the worker's exit-time sweep (own name)
    or the parent's registry sweep (parent name) reclaims it, so no path
    leaks ``/dev/shm`` entries.
    """
    from repro import shm

    return shm.pack_results(run_job_batch(specs),
                            name if name is not None else shm.make_name("svc"))
