"""The asyncio job server: admission, fair dispatch, streaming, drain.

One :class:`SortingService` owns the whole pipeline::

    connections --> admission (bounded, per-tenant quotas) --> FairQueue
        --> N dispatcher tasks --> executor (inline thread | warm pool)
        --> result push (scalar, or an arena-backed frame stream)
            back to the submitting connection

Design decisions, in the order they bit:

* **Single-threaded control plane.**  Every queue/counter mutation happens
  on the event-loop thread; only job *execution* leaves it (via
  ``run_in_executor``).  The asyncio :class:`~asyncio.Condition` is purely
  a wakeup/barrier mechanism — dispatchers sleep on it when the queue is
  empty, the drain barrier waits on it for ``depth == 0 and in_flight ==
  0``.
* **Two executors, one job path.**  ``jobs <= 1`` (the default) runs
  batches on a single-thread :class:`~concurrent.futures.ThreadPoolExecutor`
  in-process: the event loop stays responsive while the job computes, and
  every job shares the *same* process-wide plan cache — the configuration
  the cross-tenant cache-sharing benchmark measures.  ``jobs > 1``
  dispatches to a shared warm pool whose tier the ``executor`` knob
  picks: the process pool (:func:`repro.parallel.warm_pool`, default —
  each worker keeps its own process-global cache warm across jobs), the
  warm thread pool (:func:`repro.parallel.warm_thread_pool` — workers
  share the server's cache like the inline executor), or the process
  pool with bulk results returned through :mod:`repro.shm` arenas.
  Per-job cache deltas are computed inside the worker either way, so
  tenant attribution stays exact.
* **Backpressure is an answer, not an exception.**  Admission overflow,
  per-tenant quota/rate rejections and draining all produce normal
  protocol replies (``queue_full``/``rate_limited`` with a
  ``retry_after_ms`` hint — EMA-of-job-cost for queue pressure, the
  token bucket's own refill time for rate limits — and ``draining``);
  nothing is buffered beyond the declared bounds and nothing is silently
  dropped.
* **Results stream; the server never holds them.**  A ``stream: true``
  sort's array lands in a :mod:`repro.shm` arena (any batch containing
  one is dispatched through a parent-named arena, whatever the executor
  tier) and leaves as checksummed frames — shm descriptors for same-host
  clients, length-prefixed binary otherwise — under a bounded in-flight
  window (see :mod:`repro.service.streams`).  The arena carries a read
  lease per streamed job and unlinks when the last consumer signals
  ``stream_done`` (or dies trying: connection teardown releases too).
* **Drain is a barrier, not a kill.**  ``drain()`` (also wired to
  SIGTERM/SIGINT) stops admission, wakes everyone, waits until the queue
  and the in-flight set are empty — results *and result streams*
  included, so no accepted job is ever lost — then flushes observability
  state and trips the drained event that ends ``serve()``.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs import MetricsRegistry
from repro.plancache import PLAN_CACHE
from repro.service.jobs import run_job_batch, run_job_batch_shm
from repro.service.protocol import JobSpec, ProtocolError, decode_line, encode
from repro.service.queue import FairQueue, QueueFull, QueuedJob, TokenBucket
from repro.service.streams import (
    DEFAULT_CHUNK_KEYS,
    DEFAULT_WINDOW,
    STREAM_TRANSPORTS,
    frame_checksum,
    plan_frames,
)

__all__ = ["SortingService", "serve"]

_TENANT_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


class _Connection:
    """One client stream: a writer plus the lock that serializes pushes."""

    __slots__ = ("writer", "lock", "closed")

    def __init__(self, writer: asyncio.StreamWriter | None):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.closed = False

    async def send(self, message: dict) -> bool:
        return await self.send_with_payload(message, None)

    async def send_with_payload(self, message: dict, payload: bytes | None) -> bool:
        """Send a message line, optionally followed by raw payload bytes.

        The lock spans both writes: a binary result frame is one atomic
        unit on the wire (header line + exactly ``nbytes`` bytes), and
        concurrent streams on one connection must not interleave inside
        it.
        """
        if self.closed or self.writer is None:
            return False
        data = encode(message)
        async with self.lock:
            try:
                self.writer.write(data)
                if payload is not None:
                    self.writer.write(payload)
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                self.closed = True
                return False
        return True


class _Stream:
    """Server-side state of one in-flight result stream."""

    __slots__ = ("job", "transport", "frames", "sent", "acked", "ack_event",
                 "aborted", "lease_name", "lease_released", "awaiting_done")

    def __init__(self, job: QueuedJob, transport: str, frames: int,
                 lease_name: str | None):
        self.job = job
        self.transport = transport
        self.frames = frames
        self.sent = -1
        self.acked = -1
        self.ack_event = asyncio.Event()
        self.aborted = False
        self.lease_name = lease_name
        self.lease_released = lease_name is None
        self.awaiting_done = False

    def release_lease(self) -> None:
        if not self.lease_released:
            from repro import shm

            self.lease_released = True
            shm.release_lease(self.lease_name)


class SortingService:
    """The job server (transport-agnostic core).

    Args:
        jobs: executor width — ``<= 1`` runs jobs on an in-process
            single-thread executor against the server's own plan cache;
            ``> 1`` fans batches out over that many warm pool workers.
        executor: warm-pool tier for ``jobs > 1`` — ``"process"`` (the
            shared process pool), ``"thread"`` (the warm thread pool;
            workers share the server's plan cache like the inline
            executor does), ``"shm"`` (process pool with bulk results
            returned through :mod:`repro.shm` arenas), or
            ``None``/``"auto"`` (consult ``REPRO_EXECUTOR``, else the
            process pool — job payloads are compact, so the pickling
            break-even rarely favors arenas here).  Ignored when
            ``jobs <= 1``.
        max_queued: global admission bound.
        max_queued_per_tenant: per-tenant admission bound.
        batch_max: maximum compatible jobs fused into one executor trip.
        tenant_rate: per-tenant token-bucket admission rate in jobs/sec
            (``None`` = unlimited).  Rejections answer ``rate_limited``
            with ``retry_after_ms`` derived from the bucket's refill.
        tenant_burst: bucket depth (default: ``ceil(tenant_rate)``,
            at least 1) — short bursts admit at full speed.
        max_inflight_per_tenant: cap on one tenant's accepted-but-not-yet-
            delivered jobs (queued + executing + streaming); ``None`` =
            unlimited.
        stream_chunk: keys per streamed result frame.
        stream_window: frames in flight beyond the highest client ack.
        stream_ack_timeout: seconds to wait for window space before a
            stream is declared stalled and aborted (keeps drain finite
            against a dead-but-connected consumer).
        metrics: a :class:`repro.obs.MetricsRegistry` to report into (a
            fresh one by default; exposed as ``self.metrics``).
        obs_out: optional path — drain writes a JSON observability snapshot
            (service metrics + plan-cache stats) there.
        log: ``log(text)`` sink for operational messages (stderr default).
    """

    def __init__(
        self,
        jobs: int = 1,
        executor: str | None = None,
        max_queued: int = 1024,
        max_queued_per_tenant: int = 512,
        batch_max: int = 8,
        tenant_rate: float | None = None,
        tenant_burst: int | None = None,
        max_inflight_per_tenant: int | None = None,
        stream_chunk: int = DEFAULT_CHUNK_KEYS,
        stream_window: int = DEFAULT_WINDOW,
        stream_ack_timeout: float = 30.0,
        metrics: MetricsRegistry | None = None,
        obs_out: str | None = None,
        log=None,
    ):
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if stream_chunk < 1:
            raise ValueError(f"stream_chunk must be >= 1, got {stream_chunk}")
        if stream_window < 1:
            raise ValueError(f"stream_window must be >= 1, got {stream_window}")
        self.queue = FairQueue(max_queued, max_queued_per_tenant)
        self.batch_max = int(batch_max)
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.stream_chunk = int(stream_chunk)
        self.stream_window = int(stream_window)
        self.stream_ack_timeout = float(stream_ack_timeout)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.obs_out = obs_out
        self.log = log if log is not None else (
            lambda text: print(text, file=sys.stderr, flush=True))
        self.jobs = int(jobs)
        self._pool_workers = 0
        self.executor_tier = "inline"
        if self.jobs > 1:
            from repro.parallel import (
                resolve_executor,
                warm_pool,
                warm_thread_pool,
            )

            # total=None skips the batch-size degrade guard: pool width is
            # a service-lifetime decision, not a per-batch one.
            tier = resolve_executor(executor, jobs=self.jobs, total=None)
            if tier == "serial":  # nonsensical for a pool; keep status quo
                tier = "process"
            self._pool_workers = self.jobs
            if tier == "thread":
                self._executor = warm_thread_pool(self.jobs)
            else:
                self._executor = warm_pool(self.jobs)
            self.executor_tier = tier
            self._owns_executor = False
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service")
            self._owns_executor = True

        self.draining = False
        self.in_flight = 0
        self._cond: asyncio.Condition | None = None
        self._drained = asyncio.Event()
        self._dispatchers: list[asyncio.Task] = []
        self._seq = itertools.count()
        self._tenants: set[str] = set()
        self._ema_run_ms = 50.0  # seeds the retry-after hint before data
        self._buckets: dict[str, TokenBucket] = {}
        self._tenant_inflight: dict[str, int] = {}
        self._streams: dict[str, _Stream] = {}
        self._stream_tasks: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    def _ensure_started(self) -> None:
        """Create loop-bound state and dispatcher tasks (idempotent)."""
        if self._cond is not None:
            return
        self._cond = asyncio.Condition()
        width = self._pool_workers if self._pool_workers else 1
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"repro-dispatch-{i}")
            for i in range(width)
        ]

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Listen on TCP; returns the server (``port=0`` picks a free one)."""
        self._ensure_started()
        return await asyncio.start_server(self._handle_stream, host, port)

    async def serve_stdio(self) -> None:
        """Speak the protocol over this process's stdin/stdout (tests, CI).

        Returns at stdin EOF, after draining — in-flight jobs complete and
        counters settle even though the peer is gone.
        """
        self._ensure_started()
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
        w_transport, w_protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout)
        writer = asyncio.StreamWriter(w_transport, w_protocol, reader, loop)
        await self._handle_stream(reader, writer, close=False)
        if not self._drained.is_set():
            await self.drain()

    def install_signal_handlers(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Wire SIGTERM/SIGINT to a graceful drain (no-op where unsupported)."""
        loop = loop if loop is not None else asyncio.get_running_loop()

        def _drain_now() -> None:
            self.log("signal received: draining (admission closed)")
            asyncio.ensure_future(self.drain())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _drain_now)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def aclose(self) -> None:
        """Stop dispatchers and release the inline executor (post-drain)."""
        for task in self._dispatchers:
            task.cancel()
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        for task in list(self._stream_tasks):
            task.cancel()
        if self._stream_tasks:
            await asyncio.gather(*self._stream_tasks, return_exceptions=True)
        self._stream_tasks.clear()
        for state in list(self._streams.values()):
            state.release_lease()
        self._streams.clear()
        if self._owns_executor:
            self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def drained(self) -> asyncio.Event:
        """Set once a drain has fully completed."""
        return self._drained

    # -- connection handling -------------------------------------------------

    async def _handle_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        close: bool = True,
    ) -> None:
        conn = _Connection(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                reply = await self._handle_message(line, conn)
                if reply is not None:
                    await conn.send(reply)
        except asyncio.CancelledError:
            # Loop teardown cancels lingering connection handlers; ending
            # the task cleanly keeps 3.11's streams done-callback (which
            # calls task.exception() unguarded) from logging the cancel.
            pass
        finally:
            conn.closed = True
            self._abort_streams_for(conn)
            if close:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass

    async def _handle_message(self, line: bytes, conn: _Connection) -> dict | None:
        try:
            msg = decode_line(line)
        except ProtocolError as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
        op = msg.get("op")
        rid = msg.get("id")
        if op == "submit":
            return await self._submit(msg, conn)
        if op == "ping":
            return {"ok": True, "op": "pong", "id": rid}
        if op == "stats":
            return {"ok": True, "op": "stats", "id": rid, "stats": self.stats()}
        if op == "drain":
            summary = await self.drain()
            return {"ok": True, "op": "drained", "id": rid, **summary}
        if op == "frame_ack":
            state = self._streams.get(msg.get("job_id"))
            seq = msg.get("seq")
            if state is not None and isinstance(seq, int) and seq > state.acked:
                state.acked = seq
                state.ack_event.set()
            return None
        if op == "stream_done":
            state = self._streams.pop(msg.get("job_id"), None)
            if state is not None:
                state.release_lease()
            return None
        return {"ok": False, "error": "bad_request", "id": rid,
                "detail": f"unknown op {op!r}"}

    # -- admission -----------------------------------------------------------

    async def _submit(self, msg: dict, conn: _Connection) -> dict:
        rid = msg.get("id")
        reject = {"ok": False, "op": "submit", "id": rid}
        tenant = msg.get("tenant", "default")
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            self.metrics.inc("service.rejected.bad_request")
            return {**reject, "error": "bad_request",
                    "detail": f"invalid tenant {tenant!r}"}
        transport = msg.get("transport", "binary")
        if transport not in STREAM_TRANSPORTS:
            self.metrics.inc("service.rejected.bad_request")
            return {**reject, "error": "bad_request",
                    "detail": f"transport must be one of {STREAM_TRANSPORTS}, "
                              f"got {transport!r}"}
        try:
            spec = JobSpec.from_dict(msg.get("job"))
        except ProtocolError as exc:
            self.metrics.inc("service.rejected.bad_request")
            return {**reject, "error": "bad_request", "detail": str(exc)}
        if self.draining:
            self.metrics.inc("service.rejected.draining")
            return {**reject, "error": "draining"}
        quota = self._check_quota(tenant)
        if quota is not None:
            return {**reject, **quota}
        job = QueuedJob(
            job_id=f"j{next(self._seq)}",
            tenant=tenant,
            spec=spec,
            client_id=rid,
            conn=conn,
            enqueued_at=time.perf_counter(),
            transport=transport,
        )
        try:
            depth = self.queue.put(job)
        except QueueFull as exc:
            self.metrics.inc("service.rejected.full")
            self.metrics.inc(f"service.tenant.{tenant}.rejected")
            return {**reject, "error": "queue_full", "scope": exc.scope,
                    "retry_after_ms": self._retry_after_ms()}
        self._tenants.add(tenant)
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        self.metrics.inc("service.submitted")
        self.metrics.inc(f"service.tenant.{tenant}.submitted")
        self.metrics.set_gauge("service.queue_depth", self.queue.depth)
        async with self._cond:
            self._cond.notify(1)
        return {"ok": True, "op": "submit", "id": rid, "status": "queued",
                "job_id": job.job_id, "queued": depth}

    def _check_quota(self, tenant: str) -> dict | None:
        """Per-tenant quota gate; a rejection payload, or ``None`` = admit.

        Order matters: the inflight cap is checked first so a rejected
        submit never consumes a rate token.
        """
        if self.max_inflight_per_tenant is not None:
            if (self._tenant_inflight.get(tenant, 0)
                    >= self.max_inflight_per_tenant):
                self.metrics.inc("service.rejected.rate_limited")
                self.metrics.inc(f"service.tenant.{tenant}.rejected")
                return {"error": "rate_limited", "scope": "max_inflight",
                        "retry_after_ms": self._retry_after_ms()}
        if self.tenant_rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                burst = self.tenant_burst
                if burst is None:
                    burst = max(1, int(self.tenant_rate + 0.999999))
                bucket = self._buckets[tenant] = TokenBucket(
                    self.tenant_rate, burst)
            wait = bucket.try_take()
            if wait > 0.0:
                self.metrics.inc("service.rejected.rate_limited")
                self.metrics.inc(f"service.tenant.{tenant}.rejected")
                return {"error": "rate_limited", "scope": "jobs_per_sec",
                        "retry_after_ms": max(1, int(wait * 1e3 + 0.5))}
        return None

    def _release_tenant(self, tenant: str) -> None:
        left = self._tenant_inflight.get(tenant, 0) - 1
        if left > 0:
            self._tenant_inflight[tenant] = left
        else:
            self._tenant_inflight.pop(tenant, None)

    def _retry_after_ms(self) -> int:
        """Backpressure hint: time for the backlog to pass one worker."""
        width = max(1, self._pool_workers or 1)
        backlog = self.queue.depth + self.in_flight
        return int(min(30_000, max(50.0, self._ema_run_ms * (backlog / width))))

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            async with self._cond:
                while self.queue.depth == 0:
                    await self._cond.wait()
                batch = self.queue.pop_batch(self.batch_max)
                if not batch:  # pragma: no cover - raced another dispatcher
                    continue
                self.in_flight += len(batch)
            self.metrics.set_gauge("service.queue_depth", self.queue.depth)
            self.metrics.set_gauge("service.in_flight", self.in_flight)
            specs = tuple(job.spec for job in batch)
            has_stream = any(job.spec.stream for job in batch)
            use_arena = has_stream or self.executor_tier == "shm"
            arena_name = None
            stream_refs: dict[str, object] = {}
            try:
                if use_arena:
                    from repro import shm

                    arena_name = shm.make_name("svcres")
                    shm.register_name(arena_name)
                    tagged = await loop.run_in_executor(
                        self._executor, run_job_batch_shm, specs, arena_name)
                    payloads, stream_refs = self._unpack_batch(
                        batch, tagged, arena_name)
                else:
                    payloads = await loop.run_in_executor(
                        self._executor, run_job_batch, specs)
                    stream_refs = self._extract_stream_payloads(batch, payloads)
            except asyncio.CancelledError:
                if arena_name is not None:
                    from repro import shm

                    shm.sweep((arena_name,))
                async with self._cond:
                    self.in_flight -= len(batch)
                    self._cond.notify_all()
                raise
            except Exception as exc:  # broken pool, pickling failure, ...
                self.log(f"batch of {len(batch)} failed in executor: {exc!r}")
                if arena_name is not None:
                    from repro import shm

                    shm.sweep((arena_name,))
                payloads = [
                    {"ok": False, "run_ms": 0.0,
                     "result": {"kind": spec.kind,
                                "error": f"{type(exc).__name__}: {exc}"},
                     "plancache": {"hits": 0, "misses": 0}}
                    for spec in specs
                ]
                stream_refs = {}
            now = time.perf_counter()
            self.metrics.inc("service.batches")
            if len(batch) > 1:
                self.metrics.inc("service.batched_jobs", len(batch) - 1)
            streams = 0
            for job, payload in zip(batch, payloads):
                ref = stream_refs.get(job.job_id)
                if ref is not None:
                    streams += 1
                    task = asyncio.create_task(
                        self._deliver_stream(job, payload, ref,
                                             len(batch), now),
                        name=f"repro-stream-{job.job_id}")
                    self._stream_tasks.add(task)
                    task.add_done_callback(self._stream_tasks.discard)
                else:
                    await self._finish_job(job, payload, len(batch), now)
            async with self._cond:
                # Streamed jobs stay in flight until their delivery task
                # (which sends result_end) finishes — the drain barrier
                # must cover them.
                self.in_flight -= len(batch) - streams
                self.metrics.set_gauge("service.in_flight", self.in_flight)
                self._cond.notify_all()

    def _extract_stream_payloads(self, batch, payloads) -> dict:
        """Pop in-memory ``sorted_keys`` arrays for the streamed jobs."""
        refs: dict[str, object] = {}
        for job, payload in zip(batch, payloads):
            if not (job.spec.stream and isinstance(payload, dict)
                    and payload.get("ok")):
                continue
            result = payload.get("result")
            if isinstance(result, dict) and "sorted_keys" in result:
                refs[job.job_id] = result.pop("sorted_keys")
        return refs

    def _unpack_batch(self, batch, tagged: tuple, name: str) -> tuple[list, dict]:
        """Resolve an arena batch, keeping streamed arrays *in* the arena.

        The streamed jobs' ``sorted_keys`` ShmRefs are popped before the
        generic unpack so their payloads are never copied out; the arena
        then takes one read lease per streamed ref (released as each
        stream completes — the last release unlinks).  Everything else is
        copied out as usual.  With no streamed refs the segment is swept
        immediately.
        """
        from repro import shm

        tag, payload_list, _moved = tagged
        if tag == "inline":
            # Below the break-even (or /dev/shm unusable): the named
            # segment was never created — settle the pre-registration.
            shm.sweep((name,))
            return payload_list, self._extract_stream_payloads(
                batch, payload_list)
        refs: dict[str, object] = {}
        for job, payload in zip(batch, payload_list):
            if not (job.spec.stream and isinstance(payload, dict)
                    and payload.get("ok")):
                continue
            result = payload.get("result")
            if isinstance(result, dict) and "sorted_keys" in result:
                refs[job.job_id] = result.pop("sorted_keys")
        cache = shm._AttachCache()
        try:
            payloads = [shm.unpack(item, cache) for item in payload_list]
        finally:
            cache.close()
        leases = sum(1 for ref in refs.values() if isinstance(ref, shm.ShmRef))
        if leases:
            shm.acquire_lease(name, leases)
        else:
            shm.sweep((name,))
        return payloads, refs

    # -- result delivery -----------------------------------------------------

    def _account_job(self, job: QueuedJob, payload: dict, now: float) -> dict:
        """Fold one finished job into metrics/EMA; return the timing trio."""
        run_ms = float(payload["run_ms"])
        latency_ms = (now - job.enqueued_at) * 1e3
        queue_ms = max(0.0, latency_ms - run_ms)
        self._ema_run_ms += 0.2 * (run_ms - self._ema_run_ms)
        t = job.tenant
        self.metrics.inc("service.completed" if payload["ok"] else "service.failed")
        self.metrics.inc(f"service.tenant.{t}.completed")
        pc = payload.get("plancache", {})
        self.metrics.inc(f"service.tenant.{t}.plancache.hits",
                         max(0, pc.get("hits", 0)))
        self.metrics.inc(f"service.tenant.{t}.plancache.misses",
                         max(0, pc.get("misses", 0)))
        self.metrics.observe("service.run_ms", run_ms)
        self.metrics.observe("service.queue_ms", queue_ms)
        self.metrics.observe("service.latency_ms", latency_ms)
        return {"run_ms": round(run_ms, 3), "queue_ms": round(queue_ms, 3),
                "latency_ms": round(latency_ms, 3)}

    async def _finish_job(
        self, job: QueuedJob, payload: dict, batch_size: int, now: float
    ) -> None:
        timing = self._account_job(job, payload, now)
        self._release_tenant(job.tenant)
        message = {
            "ok": payload["ok"],
            "op": "result",
            "id": job.client_id,
            "job_id": job.job_id,
            "tenant": job.tenant,
            "result": payload["result"],
            **timing,
            "batched": batch_size,
        }
        if job.conn is not None:
            await job.conn.send(message)

    async def _deliver_stream(
        self, job: QueuedJob, payload: dict, ref, batch_size: int, now: float
    ) -> None:
        """Send one streamed result: header, windowed frames, trailer.

        Runs as its own task so a slow consumer throttles only its stream
        (the bounded window blocks *here*, not in the dispatcher); the job
        stays in flight — and its tenant quota held — until the trailer
        is out.
        """
        from repro import shm

        import numpy as np

        is_ref = isinstance(ref, shm.ShmRef)
        # A shm transport is only deliverable when the payload actually
        # lives in a segment; otherwise (tiny array, no /dev/shm) the
        # header downgrades to binary and the client follows it.
        transport = job.transport if is_ref else "binary"
        dtype = ref.dtype if is_ref else ref.dtype.str
        itemsize = np.dtype(dtype).itemsize
        count = (ref.nbytes // itemsize) if is_ref else int(ref.size)
        frames = plan_frames(count, self.stream_chunk)
        state = _Stream(job, transport, len(frames),
                        ref.segment if is_ref else None)
        self._streams[job.job_id] = state
        arena = None
        sent_bytes = 0
        ok = True
        error: str | None = None
        try:
            timing = self._account_job(job, payload, now)
            header = {
                "ok": True,
                "op": "result_header",
                "id": job.client_id,
                "job_id": job.job_id,
                "tenant": job.tenant,
                "frames": len(frames),
                "count": count,
                "dtype": dtype,
                "chunk": self.stream_chunk,
                "transport": transport,
                "batched": batch_size,
            }
            if job.conn is None or not await job.conn.send(header):
                ok, error = False, "client_gone"
                return
            if is_ref:
                arena = shm.Arena.attach(ref.segment)
            for seq, (start, length) in enumerate(frames):
                if state.aborted or (job.conn and job.conn.closed):
                    ok, error = False, "client_gone"
                    return
                try:
                    await self._window_wait(state)
                except asyncio.TimeoutError:
                    ok, error = False, "stream_stalled"
                    return
                if state.aborted:
                    ok, error = False, "client_gone"
                    return
                chunk = (arena.view(ref, start, length) if is_ref
                         else ref[start:start + length])
                n, total = frame_checksum(chunk)
                frame = {
                    "op": "result_frame",
                    "job_id": job.job_id,
                    "seq": seq,
                    "count": n,
                    "sum": total,
                }
                if transport == "shm":
                    frame["shm"] = {
                        "segment": ref.segment,
                        "offset": ref.offset + start * itemsize,
                        "nbytes": length * itemsize,
                        "kind": "ndarray",
                        "shape": [length],
                        "dtype": dtype,
                    }
                    sent = await job.conn.send(frame)
                    sent_bytes += length * itemsize
                else:
                    data = chunk.tobytes()
                    frame["nbytes"] = len(data)
                    sent = await job.conn.send_with_payload(frame, data)
                    sent_bytes += len(data)
                if not sent:
                    ok, error = False, "client_gone"
                    return
                state.sent = seq
                self.metrics.inc("service.stream.frames")
                self.metrics.inc("service.stream.bytes", length * itemsize)
            trailer = {
                "ok": payload["ok"],
                "op": "result_end",
                "id": job.client_id,
                "job_id": job.job_id,
                "tenant": job.tenant,
                "result": payload["result"],
                "frames": len(frames),
                "count": count,
                **timing,
                "batched": batch_size,
            }
            await job.conn.send(trailer)
            self.metrics.inc("service.stream.jobs")
        finally:
            if arena is not None:
                arena.release()
            if not ok:
                self.metrics.inc("service.stream.aborted")
                state.release_lease()
                self._streams.pop(job.job_id, None)
                if error != "client_gone" and job.conn is not None:
                    await job.conn.send({
                        "ok": False, "op": "result_end", "id": job.client_id,
                        "job_id": job.job_id, "tenant": job.tenant,
                        "error": error, "retryable": True,
                        "result": {"kind": job.spec.kind, "error": error},
                    })
            elif transport != "shm":
                # Binary frames were copied onto the wire; nothing reads
                # the arena after this, so the lease drops now.  A shm
                # stream instead waits for the client's stream_done.
                state.release_lease()
                self._streams.pop(job.job_id, None)
            else:
                state.awaiting_done = True
            self._release_tenant(job.tenant)
            async with self._cond:
                self.in_flight -= 1
                self.metrics.set_gauge("service.in_flight", self.in_flight)
                self._cond.notify_all()

    async def _window_wait(self, state: _Stream) -> None:
        """Block until the in-flight frame window has room (or timeout)."""
        while (state.sent - state.acked >= self.stream_window
               and not state.aborted):
            state.ack_event.clear()
            await asyncio.wait_for(state.ack_event.wait(),
                                   self.stream_ack_timeout)

    def _abort_streams_for(self, conn: _Connection) -> None:
        """Connection teardown: abort/release every stream bound to it."""
        for job_id, state in list(self._streams.items()):
            if state.job.conn is conn:
                state.aborted = True
                state.ack_event.set()
                if state.awaiting_done:
                    state.release_lease()
                    self._streams.pop(job_id, None)

    # -- drain + reporting -----------------------------------------------------

    async def drain(self) -> dict:
        """Stop admitting, finish every in-flight/queued job, flush obs.

        Idempotent; concurrent callers all return once the barrier clears.
        No accepted job is lost: the barrier counts a job as in-flight
        until its result — the full frame stream, for streamed jobs — has
        been pushed.
        """
        self._ensure_started()
        self.draining = True
        async with self._cond:
            self._cond.notify_all()
            await self._cond.wait_for(
                lambda: self.queue.depth == 0 and self.in_flight == 0)
        flushed = self._flush_obs()
        summary = {
            "completed": int(self.metrics.value("service.completed")),
            "failed": int(self.metrics.value("service.failed")),
            "flushed": flushed,
        }
        self._drained.set()
        return summary

    def _flush_obs(self) -> str | None:
        """Fold plan-cache counters into the registry; snapshot to disk."""
        PLAN_CACHE.export_metrics(self.metrics)
        self.metrics.set_gauge("service.queue_depth", 0)
        self.metrics.set_gauge("service.in_flight", 0)
        if self.obs_out is None:
            return None
        import json

        snapshot = {"service": self.stats(), "metrics": self.metrics.to_dict()}
        with open(self.obs_out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.obs_out

    def tenant_stats(self) -> dict:
        """Per-tenant counters incl. plan-cache hit rates (JSON-ready)."""
        depths = self.queue.tenant_depths()
        out: dict = {}
        for t in sorted(self._tenants | set(depths)):
            hits = self.metrics.value(f"service.tenant.{t}.plancache.hits")
            misses = self.metrics.value(f"service.tenant.{t}.plancache.misses")
            out[t] = {
                "queued": depths.get(t, 0),
                "inflight": self._tenant_inflight.get(t, 0),
                "submitted": int(self.metrics.value(f"service.tenant.{t}.submitted")),
                "completed": int(self.metrics.value(f"service.tenant.{t}.completed")),
                "rejected": int(self.metrics.value(f"service.tenant.{t}.rejected")),
                "plancache": {
                    "hits": int(hits),
                    "misses": int(misses),
                    "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                },
            }
        return out

    def stats(self) -> dict:
        """The ``stats`` op payload."""
        rejected = {
            "full": int(self.metrics.value("service.rejected.full")),
            "draining": int(self.metrics.value("service.rejected.draining")),
            "bad_request": int(self.metrics.value("service.rejected.bad_request")),
            "rate_limited": int(
                self.metrics.value("service.rejected.rate_limited")),
        }
        return {
            "queue_depth": self.queue.depth,
            "in_flight": self.in_flight,
            "draining": self.draining,
            "submitted": int(self.metrics.value("service.submitted")),
            "completed": int(self.metrics.value("service.completed")),
            "failed": int(self.metrics.value("service.failed")),
            "rejected": rejected,
            "batches": int(self.metrics.value("service.batches")),
            "batched_jobs": int(self.metrics.value("service.batched_jobs")),
            "ema_run_ms": round(self._ema_run_ms, 3),
            "executor": {
                "mode": "pool" if self._pool_workers else "inline",
                "tier": self.executor_tier,
                "workers": self._pool_workers or 1,
            },
            "streams": {
                "jobs": int(self.metrics.value("service.stream.jobs")),
                "frames": int(self.metrics.value("service.stream.frames")),
                "bytes": int(self.metrics.value("service.stream.bytes")),
                "aborted": int(self.metrics.value("service.stream.aborted")),
                "open": len(self._streams),
            },
            "tenants": self.tenant_stats(),
            "plancache": PLAN_CACHE.stats(),
        }


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    stdio: bool = False,
    ready=None,
    **service_opts,
) -> SortingService:
    """Run a server until it drains (the ``repro serve`` entry point).

    ``ready(service, port_or_None)`` is called once the transport is
    listening — the CLI prints the bound port there, tests grab the
    service handle.  Returns the drained service.
    """
    service = SortingService(**service_opts)
    if stdio:
        if ready is not None:
            ready(service, None)
        await service.serve_stdio()
        await service.aclose()
        return service
    server = await service.start_tcp(host, port)
    service.install_signal_handlers()
    bound = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(service, bound)
    async with server:
        await service.drained.wait()
    await service.aclose()
    return service
