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

A batch of phase-engine sorts runs together (:func:`run_job_batch`):
each job is planned on its own, so its cache delta is still measured
around exactly its own lookups, and the sorts bound to one program
skeleton share one executor call.  Such a job's ``run_ms`` is its own key
generation, planning and verification plus an equal share of its group's
call.  The server's ``retry_after_ms`` hint multiplies the average
``run_ms`` by the backlog per executor slot, so ``run_ms`` must stay a
per-job cost: charging every job its whole group's call would inflate the
hint by up to the batch size.

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

__all__ = ["run_job", "run_job_batch"]

#: Most keys a batch's sorts may hold between them to run together
#: (:func:`run_job_batch`).  Past it the executor's per-call cost is a
#: small share of every job, while holding all of the batch's keys and
#: results at once would multiply its peak memory, so such a batch runs
#: one job at a time.
_GROUP_MAX_KEYS = 1 << 18

def _sort_keys(spec: JobSpec) -> np.ndarray:
    """The job's keys, regenerated from its seed."""
    rng = np.random.default_rng(spec.seed)
    return rng.integers(0, 10**6, size=spec.keys).astype(float)


def _sort_result(spec: JobSpec, keys: np.ndarray, sorted_keys: np.ndarray,
                 elapsed: float) -> dict:
    """A sort job's result dict, verified against ``np.sort`` of its keys."""
    expected = np.sort(keys)
    out = {
        "kind": "sort",
        "verified": bool(np.array_equal(sorted_keys, expected)),
        "elapsed_sim": float(elapsed),
        "checksum": float(sorted_keys.sum()),
        "keys": int(keys.size),
    }
    if spec.stream:
        # The array itself: the server slices it into binary frames.
        out["sorted_keys"] = np.ascontiguousarray(sorted_keys, dtype=np.float64)
    elif spec.return_keys:
        # The pickled baseline: the whole array rides the result inline
        # as base64 text (one giant JSONL line at the client).
        data = np.ascontiguousarray(sorted_keys, dtype=np.float64)
        out["keys_b64"] = base64.b64encode(data.tobytes()).decode("ascii")
    return out


def _run_sort(spec: JobSpec) -> dict:
    from repro.core.ftsort import fault_tolerant_sort
    from repro.core.spmd_sort import spmd_fault_tolerant_sort

    keys = _sort_keys(spec)
    if spec.backend == "spmd":
        res = spmd_fault_tolerant_sort(keys, spec.n, list(spec.faults),
                                       kernels=spec.kernels)
        elapsed = res.finish_time
    else:
        res = fault_tolerant_sort(keys, spec.n, list(spec.faults),
                                  kernels=spec.kernels)
        elapsed = res.elapsed
    return _sort_result(spec, keys, res.sorted_keys, elapsed)


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


def _failed(spec: JobSpec, exc: Exception) -> dict:
    return {"kind": spec.kind, "error": f"{type(exc).__name__}: {exc}"}


def _cache_delta(before: dict, after: dict) -> dict:
    return {"hits": after["total_hits"] - before["total_hits"],
            "misses": after["total_misses"] - before["total_misses"]}


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
        result = _failed(spec, exc)
        ok = False
    run_ms = (time.perf_counter() - t0) * 1e3
    return {
        "ok": ok,
        "result": result,
        "run_ms": run_ms,
        "plancache": _cache_delta(before, PLAN_CACHE.stats()),
    }


def _runs_on_executor(spec: JobSpec) -> bool:
    """Whether a job is a phase-engine sort that the schedule executor runs."""
    from repro.kernels import resolve_backend

    return (spec.kind == "sort" and spec.backend == "phase"
            and resolve_backend(spec.kernels).schedule_compiled)


def _run_sorts_grouped(specs: tuple[JobSpec, ...]) -> list[dict]:
    """Phase-engine sorts, planned one by one and run one executor call
    per group (:func:`repro.core.ftsort.run_planned`).

    A job's plan-cache delta is measured around its own planning, which
    is all the cache traffic it makes.  Its ``run_ms`` is its own key
    generation, planning and verification plus an equal share of its
    group's executor call.
    """
    from repro.core import ftsort

    payloads: list = [None] * len(specs)
    planned: dict[int, ftsort.PlannedSort] = {}
    for i, spec in enumerate(specs):
        before = PLAN_CACHE.stats()
        t0 = time.perf_counter()
        payload = payloads[i] = {"ok": False, "result": None}
        try:
            planned[i] = ftsort.plan_sort(_sort_keys(spec), spec.n, list(spec.faults))
        except Exception as exc:
            payload["result"] = _failed(spec, exc)
        payload["run_ms"] = (time.perf_counter() - t0) * 1e3
        payload["plancache"] = _cache_delta(before, PLAN_CACHE.stats())
    groups: dict[tuple, list[int]] = {}
    for i, sort in planned.items():
        groups.setdefault(sort.group, []).append(i)
    for members in groups.values():
        t0 = time.perf_counter()
        try:
            results = ftsort.run_planned([planned[i] for i in members])
        except Exception as exc:
            results = [exc] * len(members)
        share = (time.perf_counter() - t0) * 1e3 / len(members)
        for i, res in zip(members, results):
            payload = payloads[i]
            t0 = time.perf_counter()
            if isinstance(res, Exception):
                payload["result"] = _failed(specs[i], res)
            else:
                payload["result"] = _sort_result(specs[i], planned[i].keys,
                                                 res.sorted_keys, res.elapsed)
                payload["ok"] = True
            payload["run_ms"] += share + (time.perf_counter() - t0) * 1e3
    return payloads


def run_job_batch(specs: tuple[JobSpec, ...]) -> list[dict]:
    """Execute a compatible batch in one executor round-trip.

    A batch of several phase-engine sorts on the schedule executor (they
    share ``n``, kernels and backend, whatever their fault sets) with at
    most ``_GROUP_MAX_KEYS`` keys between them runs its sorts together:
    sorts whose programs are bound to one skeleton and whose keys make
    blocks of one size run as one executor call.  Every other batch — one
    sort, big sorts, ``spmd`` sorts, plan jobs — runs its jobs one by
    one, and a plan batch's later jobs hit the plan its first job cached.
    Either way each job gets its own result, ``verified`` check and
    plan-cache delta.
    """
    if (len(specs) > 1 and sum(spec.keys for spec in specs) <= _GROUP_MAX_KEYS
            and all(_runs_on_executor(spec) for spec in specs)):
        return _run_sorts_grouped(specs)
    return [run_job(spec) for spec in specs]
