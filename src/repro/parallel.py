"""Parallel task fan-out: serial / process / thread / shm executor tiers.

Simulated runs are embarrassingly parallel: every grid point / scenario is
a pure function of its own (deterministically derived) seed, so the only
orchestration needed is an executor and order-stable result collection.
:func:`run_tasks` provides exactly that — tasks are submitted in *chunks*
(amortizing per-dispatch overhead), results are returned **in task order**
regardless of completion order, and every tier must reproduce the serial
loop byte-for-byte.

The ``executor`` axis picks how a chunk crosses the worker boundary:

* ``serial`` — plain loop in the calling process; the reference.
* ``process`` — the warm :class:`~concurrent.futures.ProcessPoolExecutor`;
  every task and result is pickled across a pipe.
* ``thread`` — a warm :class:`~concurrent.futures.ThreadPoolExecutor`;
  zero serialization, but only wins when the kernels release the GIL
  (numpy / compiled backends do; the pure-Python loop backend does not).
* ``shm`` — the process pool, but bulk payloads (key blocks, result
  arrays) travel through :mod:`repro.shm` arenas and only tiny
  descriptors are pickled.
* ``auto`` — picks by kernel backend and payload volume against the
  measured pickling break-even (:data:`PICKLE_BREAK_EVEN_BYTES`, see
  docs/PERFORMANCE.md).

Guards the first cut of this runner shipped without, still enforced for
*every* tier:

* **Auto-serial.** Pool spin-up plus dispatch overhead can exceed the
  work itself.  On single-CPU hosts (:func:`effective_cpu_count` of 1) or
  for small batches (``total < 2 * jobs``) no parallel tier can win, so
  the runner silently degrades to the serial loop — which is also what
  lets ``--fast`` runs pass unchanged on 1-CPU hosts.
* **Warm pools.** Both pools persist across :func:`run_tasks` calls
  (keyed on worker count); process workers pre-import the simulation
  stack and keep their per-process :data:`repro.plancache.PLAN_CACHE`
  warm.  Teardown (:func:`shutdown_pool`) kills both pools *and* sweeps
  any shared-memory arenas still registered, extending the no-orphan
  guarantee to ``/dev/shm``.

Task functions must be module-level callables (picklable) and must not
share mutable state; under the thread tier they additionally must keep
any ambient state in ``threading.local`` slots (the fault injectors'
active-slot registry does — see :mod:`repro.faults.injectors`).
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

from repro import shm

__all__ = [
    "EXECUTORS",
    "PICKLE_BREAK_EVEN_BYTES",
    "effective_cpu_count",
    "jobs_from_env",
    "last_run_stats",
    "resolve_executor",
    "resolve_jobs",
    "run_tasks",
    "shutdown_pool",
    "warm_pool",
    "warm_thread_pool",
]

#: The executor tiers ``run_tasks`` understands (``"auto"`` resolves to one).
EXECUTORS = ("serial", "process", "thread", "shm")

#: Per-task payload volume above which pickling dominates dispatch cost and
#: the ``auto`` policy switches away from the process pool.  Measured on the
#: executor benchmark (docs/PERFORMANCE.md, "Executor tiers"): below ~64 KiB
#: a pickle round-trip beats arena setup + descriptor dispatch.
PICKLE_BREAK_EVEN_BYTES = 1 << 16

#: How long teardown waits for already-running shm chunks to finish before
#: sweeping their arenas (a sweep racing a live packer loses data, never
#: segments — but waiting first keeps the normal path loss-free).
_TEARDOWN_WAIT_SECONDS = 30.0


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


def resolve_executor(
    executor: str | None,
    *,
    jobs: int = 1,
    total: int | None = None,
    payload_hint: int | None = None,
    kernels: str | None = None,
) -> str:
    """Resolve an executor request to one of :data:`EXECUTORS`.

    ``None`` consults ``REPRO_EXECUTOR`` and falls back to ``auto``.  The
    can't-win degrade guard applies to *every* tier, explicit or not:
    with one usable CPU, ``jobs <= 1``, or fewer than ``2 * jobs`` tasks,
    the answer is ``serial`` (pass ``total=None`` to skip the guard when
    batch size is unknown, e.g. when pre-resolving for a service pool).

    The ``auto`` policy: GIL-releasing kernel backends (``numpy``,
    ``compiled``) with per-task payloads past the pickling break-even run
    on threads (zero serialization, shared memory for free); the
    pure-Python ``loop`` backend holds the GIL, so big payloads go to the
    process pool via shm arenas instead; small payloads pickle faster
    than any arena setup and stay on the plain process pool.
    """
    if executor is None:
        executor = os.environ.get("REPRO_EXECUTOR") or "auto"
    executor = str(executor).strip().lower() or "auto"
    if executor not in EXECUTORS and executor != "auto":
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTORS + ('auto',))}"
        )
    if executor == "serial":
        return "serial"
    if total is not None and (
        jobs <= 1
        or total <= 1
        or effective_cpu_count() == 1
        or total < 2 * jobs
    ):
        return "serial"
    if executor != "auto":
        if executor == "shm" and not shm.shm_available():  # pragma: no cover
            return "process"
        return executor
    if kernels is None:
        from repro.kernels import default_backend_name

        kernels = default_backend_name()
    hint = int(payload_hint or 0)
    if hint >= PICKLE_BREAK_EVEN_BYTES:
        if kernels in ("numpy", "compiled"):
            return "thread"
        if shm.shm_available():
            return "shm"
    return "process"


def _warm_worker() -> None:
    """Pool initializer: pre-import the simulation stack once per worker."""
    import repro.chaos.campaign  # noqa: F401  (pulls in core, simulator, obs)


def _run_chunk(payload: tuple) -> list:
    """Worker unit: apply ``fn`` to a contiguous chunk of tasks."""
    fn, chunk = payload
    return [fn(task) for task in chunk]


def _run_chunk_shm(payload: tuple) -> tuple:
    """Worker unit, shm tier: tasks arrive as arena descriptors, results
    leave through the result segment the parent named (and pre-registered,
    so an aborted run still sweeps it)."""
    fn, packed_chunk, result_name = payload
    cache = shm._AttachCache()
    try:
        chunk = [shm.unpack(task, cache) for task in packed_chunk]
    finally:
        cache.close()
    results = [fn(task) for task in chunk]
    return shm.pack_results(results, result_name)


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_thread_pool: ThreadPoolExecutor | None = None
_thread_pool_workers = 0


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


def _shared_thread_pool(workers: int) -> ThreadPoolExecutor:
    """The warm thread pool, mirroring :func:`_shared_pool`'s lifecycle
    (drain on resize, hard shutdown only via :func:`shutdown_pool`).
    Threads share the parent's :data:`repro.plancache.PLAN_CACHE`, so a
    thread-tier campaign also shares plan reuse across workers for free.
    """
    global _thread_pool, _thread_pool_workers
    if _thread_pool is not None and _thread_pool_workers != workers:
        old = _thread_pool
        _thread_pool = None
        old.shutdown(wait=True, cancel_futures=False)
    if _thread_pool is None:
        _thread_pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-exec"
        )
        _thread_pool_workers = workers
    return _thread_pool


def warm_pool(workers: int) -> ProcessPoolExecutor:
    """Public handle on the shared warm pool (``repro.service`` dispatches
    job batches onto it directly via ``loop.run_in_executor``)."""
    return _shared_pool(workers)


def warm_thread_pool(workers: int) -> ThreadPoolExecutor:
    """Public handle on the shared warm *thread* pool (the service's
    ``executor=thread`` mode dispatches onto it)."""
    return _shared_thread_pool(workers)


@atexit.register
def shutdown_pool() -> None:
    """Tear both warm pools down and sweep any registered shm arenas.

    Safe to call when no pool exists; the next :func:`run_tasks` /
    :func:`warm_pool` call rebuilds one.  Registered at exit, and invoked
    by :func:`run_tasks` itself on interrupt-style exceptions so a Ctrl-C
    mid-campaign never leaves orphaned worker processes — or orphaned
    ``/dev/shm`` segments — behind.
    """
    global _pool, _thread_pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
    if _thread_pool is not None:
        _thread_pool.shutdown(wait=False, cancel_futures=True)
        _thread_pool = None
    shm.sweep_registered()


_last_run: dict = {"executor": "serial", "tasks": 0}


def last_run_stats() -> dict:
    """Accounting for the most recent :func:`run_tasks` call in this
    process: resolved executor, task/chunk counts, payload volume, bytes
    moved through arenas, and the estimated bytes pickled (what the
    executor benchmark reports as "pickled bytes saved")."""
    return dict(_last_run)


def _record_run(mode: str, jobs: int, tasks: list, results: list,
                chunks: int, arena_bytes: int) -> None:
    task_bytes = sum(shm.payload_nbytes(t) for t in tasks)
    result_bytes = sum(shm.payload_nbytes(r) for r in results if r is not None)
    payload = task_bytes + result_bytes
    if mode == "process":
        pickled = payload
    elif mode == "shm":
        pickled = max(0, payload - arena_bytes)
    else:  # serial / thread never serialize
        pickled = 0
    _last_run.clear()
    _last_run.update(
        executor=mode,
        jobs=jobs,
        tasks=len(tasks),
        chunks=chunks,
        payload_bytes=payload,
        task_payload_bytes=task_bytes,
        result_payload_bytes=result_bytes,
        arena_bytes=arena_bytes,
        pickled_bytes=pickled,
    )


def run_tasks(
    fn: Callable,
    tasks: Sequence | Iterable,
    jobs: int = 1,
    progress: Callable[[int, int, object], None] | None = None,
    executor: str | None = None,
    payload_hint: int | None = None,
) -> list:
    """Run ``fn(task)`` for every task, optionally in parallel.

    Args:
        fn: module-level (picklable) task function.
        tasks: the task descriptions; materialized to a list.
        jobs: worker count; ``<= 1`` runs serially in-process.  Every
            executor tier auto-degrades to serial when it cannot win
            (one CPU, or fewer than ``2 * jobs`` tasks).
        progress: optional ``progress(done, total, result)`` callback fired
            in the parent as each task completes (completion order; chunked
            submission delivers a chunk's results consecutively).
        executor: one of :data:`EXECUTORS`, ``"auto"``, or ``None``
            (consult ``REPRO_EXECUTOR``, then ``auto``) — see
            :func:`resolve_executor`.
        payload_hint: approximate per-task bulk-payload bytes, used by the
            ``auto`` policy; computed from the tasks themselves when
            omitted (results are invisible until run, so callers whose
            *output* dominates — e.g. campaigns sized by ``max_keys`` —
            should pass a hint).

    Returns:
        ``[fn(t) for t in tasks]`` — results in task order, whatever the
        completion order was, byte-for-byte identical across executors.
    """
    tasks = list(tasks)
    total = len(tasks)
    if payload_hint is None:
        payload_hint = max(
            (shm.payload_nbytes(t) for t in tasks), default=0
        )
    mode = resolve_executor(
        executor, jobs=jobs, total=total, payload_hint=payload_hint
    )
    if mode == "serial":
        results = []
        for idx, task in enumerate(tasks):
            result = fn(task)
            results.append(result)
            if progress is not None:
                progress(idx + 1, total, result)
        _record_run("serial", 1, tasks, results, chunks=0, arena_bytes=0)
        return results

    workers = min(jobs, total)
    # ~4 chunks per worker balances dispatch amortization against tail
    # latency (a straggler chunk idles at most ~1/4 of one worker's share).
    chunk_size = max(1, -(-total // (workers * 4)))
    chunks = [tasks[i : i + chunk_size] for i in range(0, total, chunk_size)]
    results: list = [None] * total
    done = 0
    arena_bytes = 0

    if mode == "thread":
        pool = _shared_thread_pool(workers)
    else:
        pool = _shared_pool(workers)

    # fut -> (base index, parent-owned task arena or None, result segment
    # name or None).  The arena names recorded here are exactly what the
    # error paths sweep.
    meta: dict = {}
    try:
        start = 0
        for chunk in chunks:
            task_arena = None
            result_name = None
            if mode == "shm":
                size = sum(shm.collect_leaf_bytes(t) for t in chunk)
                packed = chunk
                if size:
                    task_arena = shm.Arena.create("task", size)
                    packed = [shm.pack(t, task_arena) for t in chunk]
                    task_arena.close()
                    arena_bytes += task_arena.used
                result_name = shm.make_name("res")
                shm.register_name(result_name)
                fut = pool.submit(_run_chunk_shm, (fn, packed, result_name))
            else:
                fut = pool.submit(_run_chunk, (fn, chunk))
            meta[fut] = (start, task_arena, result_name)
            start += len(chunk)
        pending = set(meta)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                base, task_arena, result_name = meta[fut]
                payload = fut.result()  # re-raises worker exceptions here
                if mode == "shm":
                    chunk_results, moved = shm.unpack_results(payload)
                    arena_bytes += moved
                    shm.deregister_name(result_name)
                    if task_arena is not None:
                        task_arena.unlink()
                else:
                    chunk_results = payload
                # Only a fully consumed chunk leaves the sweep set: if
                # ``fut.result()`` raised above, this entry stays in
                # ``meta`` and the error path reclaims its arenas.
                meta.pop(fut)
                for offset, result in enumerate(chunk_results):
                    results[base + offset] = result
                    done += 1
                    if progress is not None:
                        progress(done, total, result)
    except Exception:
        # A task (or progress callback) failed: drop the queued chunks but
        # keep the warm pool — one bad task does not poison the workers.
        for fut in meta:
            fut.cancel()
        _sweep_run(meta)
        raise
    except BaseException:
        # Interrupt-style teardown (KeyboardInterrupt, SystemExit): cancel
        # everything queued, reclaim the arenas, and kill the pools so no
        # worker (or segment) outlives the run that was aborted.
        for fut in meta:
            fut.cancel()
        _sweep_run(meta)
        shutdown_pool()
        raise
    _record_run(mode, workers, tasks, results, len(chunks), arena_bytes)
    return results


def _sweep_run(meta: dict) -> None:
    """Reclaim every arena a failed/aborted run may have left behind.

    Chunks already *running* in pool workers cannot be cancelled; give
    them a bounded window to finish (so their result segments exist and
    can be unlinked rather than appearing after the sweep), then unlink
    every task arena and expected result segment that still exists.
    Wrapped against further interrupts: a second Ctrl-C skips the wait
    but never the sweep.
    """
    if not meta:
        return
    try:
        running = [f for f in meta if not f.done()]
        if running:
            wait(running, timeout=_TEARDOWN_WAIT_SECONDS)
    except BaseException:  # pragma: no cover - double interrupt
        pass
    names = []
    for _base, task_arena, result_name in meta.values():
        if task_arena is not None:
            names.append(task_arena.name)
        if result_name is not None:
            names.append(result_name)
    shm.sweep(names)
