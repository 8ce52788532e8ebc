"""Parallel task fan-out: the serial loop or the warm process pool.

Simulated runs are embarrassingly parallel: every grid point / scenario is
a pure function of its own (deterministically derived) seed, so the only
orchestration needed is an executor and order-stable result collection.
:func:`run_tasks` provides exactly that — tasks are submitted in *chunks*
(amortizing per-dispatch overhead), results are returned **in task order**
regardless of completion order, and the pool must reproduce the serial
loop byte-for-byte.

``jobs`` is the only knob.  The runner takes the warm
:class:`~concurrent.futures.ProcessPoolExecutor` when parallelism can win
and the plain in-process loop otherwise:

* **Auto-serial.** Pool spin-up plus dispatch overhead can exceed the
  work itself.  On single-CPU hosts (:func:`effective_cpu_count` of 1),
  for ``jobs <= 1``, or for small batches (``total < 2 * jobs``) the
  runner silently degrades to the serial loop — which is also what lets
  ``--fast`` runs pass unchanged on 1-CPU hosts.
* **Warm pool.** The pool persists across :func:`run_tasks` calls (keyed
  on worker count); workers pre-import the simulation stack and keep
  their per-process :data:`repro.plancache.PLAN_CACHE` warm.  Teardown
  (:func:`shutdown_pool`) kills it, so an interrupted run leaves no
  worker behind.

Callers ship seeds, indices or artifact names rather than key arrays (a
worker regenerates its keys itself), so pickling is not where the time
goes; docs/PERFORMANCE.md §2 has the measurements behind having no other
executor.

Task functions must be module-level callables (picklable) and must not
share mutable state.
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

__all__ = [
    "effective_cpu_count",
    "jobs_from_env",
    "last_run_stats",
    "resolve_jobs",
    "run_tasks",
    "shutdown_pool",
    "warm_pool",
]


def effective_cpu_count() -> int:
    """CPUs this *process* may actually use.

    ``os.cpu_count()`` reports the host's cores and ignores CPU affinity
    masks — inside containerized CI a 64-core host may pin this process to
    2 cores, and sizing the pool (or deciding parallelism can't win) from
    the host count mis-detects the headroom both ways.
    ``os.sched_getaffinity(0)`` reflects the actual usable set where the
    platform provides it (Linux); elsewhere fall back to the host count.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            count = len(getaffinity(0))
        except OSError:  # pragma: no cover - platform quirk
            count = 0
        if count > 0:
            return count
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0``/``"auto"`` means all
    *usable* CPUs (:func:`effective_cpu_count`, affinity-aware), else as
    given.  Strings are accepted so CLI flags and environment variables
    (``REPRO_JOBS``) share one parser."""
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text in ("auto", ""):
            jobs = 0
        else:
            try:
                jobs = int(text)
            except ValueError:
                raise ValueError(
                    f"jobs must be an integer or 'auto', got {text!r}"
                ) from None
    if jobs is None or jobs == 0:
        return effective_cpu_count()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def jobs_from_env(default: int | str | None = 1) -> int:
    """Worker count from ``REPRO_JOBS`` (``auto``/``0``/N), else ``default``.

    The CLI entry points consult this so ``REPRO_JOBS=auto repro chaos``
    and ``repro chaos --jobs auto`` resolve identically (flag wins when
    both are given — callers pass the flag value as ``default``-override
    by resolving it themselves first)."""
    env = os.environ.get("REPRO_JOBS")
    if env is not None and env.strip():
        return resolve_jobs(env)
    return resolve_jobs(default)


def _warm_worker() -> None:
    """Pool initializer: pre-import the simulation stack once per worker."""
    import repro.chaos.campaign  # noqa: F401  (pulls in core, simulator, obs)


def _run_chunk(payload: tuple) -> list:
    """Worker unit: apply ``fn`` to a contiguous chunk of tasks."""
    fn, chunk = payload
    return [fn(task) for task in chunk]


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The warm process pool, rebuilt only when the worker count changes.

    A resize *drains* the old pool — ``shutdown(wait=True)`` without
    cancelling futures — so batches already dispatched onto it (the service
    submits straight to :func:`warm_pool` via ``loop.run_in_executor``)
    finish and deliver their results before the workers retire.  The
    hard-kill teardown (``cancel_futures=True``) is reserved for
    :func:`shutdown_pool`, i.e. process exit and interrupt unwinding.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        old = _pool
        _pool = None
        old.shutdown(wait=True, cancel_futures=False)
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers, initializer=_warm_worker)
        _pool_workers = workers
    return _pool


def warm_pool(workers: int) -> ProcessPoolExecutor:
    """Public handle on the shared warm pool (``repro.service`` dispatches
    job batches onto it directly via ``loop.run_in_executor``)."""
    return _shared_pool(workers)


@atexit.register
def shutdown_pool() -> None:
    """Tear the warm pool down.

    Safe to call when no pool exists; the next :func:`run_tasks` /
    :func:`warm_pool` call rebuilds one.  Registered at exit, and invoked
    by :func:`run_tasks` itself on interrupt-style exceptions so a Ctrl-C
    mid-campaign never leaves orphaned worker processes behind.
    """
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None


_last_run: dict = {"executor": "serial", "tasks": 0}


def last_run_stats() -> dict:
    """Accounting for the most recent :func:`run_tasks` call in this
    process: the executor it ran on (``serial`` or ``process``), the
    worker count, and the task and chunk counts."""
    return dict(_last_run)


def _record_run(mode: str, jobs: int, tasks: int, chunks: int) -> None:
    _last_run.clear()
    _last_run.update(executor=mode, jobs=jobs, tasks=tasks, chunks=chunks)


def run_tasks(
    fn: Callable,
    tasks: Sequence | Iterable,
    jobs: int = 1,
    progress: Callable[[int, int, object], None] | None = None,
) -> list:
    """Run ``fn(task)`` for every task, optionally in parallel.

    Args:
        fn: module-level (picklable) task function.
        tasks: the task descriptions; materialized to a list.
        jobs: worker count; ``<= 1`` runs serially in-process.  The pool
            also degrades to serial when it cannot win (one CPU, or fewer
            than ``2 * jobs`` tasks).
        progress: optional ``progress(done, total, result)`` callback fired
            in the parent as each task completes (completion order; chunked
            submission delivers a chunk's results consecutively).

    Returns:
        ``[fn(t) for t in tasks]`` — results in task order, whatever the
        completion order was, byte-for-byte identical to the serial loop.
    """
    tasks = list(tasks)
    total = len(tasks)
    if jobs <= 1 or total < 2 * jobs or effective_cpu_count() == 1:
        results = []
        for idx, task in enumerate(tasks):
            result = fn(task)
            results.append(result)
            if progress is not None:
                progress(idx + 1, total, result)
        _record_run("serial", 1, total, chunks=0)
        return results

    workers = min(jobs, total)
    # ~4 chunks per worker balances dispatch amortization against tail
    # latency (a straggler chunk idles at most ~1/4 of one worker's share).
    chunk_size = max(1, -(-total // (workers * 4)))
    chunks = [tasks[i : i + chunk_size] for i in range(0, total, chunk_size)]
    results: list = [None] * total
    done = 0
    pool = _shared_pool(workers)

    bases: dict = {}  # future -> index of its chunk's first task
    try:
        start = 0
        for chunk in chunks:
            bases[pool.submit(_run_chunk, (fn, chunk))] = start
            start += len(chunk)
        pending = set(bases)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                base = bases[fut]
                chunk_results = fut.result()  # re-raises worker exceptions
                for offset, result in enumerate(chunk_results):
                    results[base + offset] = result
                    done += 1
                    if progress is not None:
                        progress(done, total, result)
    except Exception:
        # A task (or progress callback) failed: drop the queued chunks but
        # keep the warm pool — one bad task does not poison the workers.
        for fut in bases:
            fut.cancel()
        raise
    except BaseException:
        # Interrupt-style teardown (KeyboardInterrupt, SystemExit): cancel
        # everything queued and kill the pool so no worker outlives the
        # run that was aborted.
        for fut in bases:
            fut.cancel()
        shutdown_pool()
        raise
    _record_run("process", workers, total, len(chunks))
    return results
