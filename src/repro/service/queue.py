"""Admission control and per-tenant fair queueing.

The queue layer is deliberately synchronous and lock-free: it is only ever
touched from the server's event-loop thread, so its invariants (bounded
depth, round-robin cursor position) need no locking — the asyncio
coordination (waking dispatchers, drain barriers) lives in
:mod:`repro.service.server`.

Fairness model: one FIFO queue per tenant, served **round-robin across
tenants** rather than FIFO across all arrivals, so a tenant that dumps a
thousand jobs cannot add a thousand-job head-of-line delay to a tenant
submitting one.  Admission is doubly bounded — a global cap (protects the
server) and a per-tenant cap (protects the *other* tenants' share of the
global cap); overflow raises :class:`QueueFull` which the server answers
with ``queue_full`` + a retry-after hint rather than buffering unboundedly
or dropping silently.

Batching: :meth:`FairQueue.pop_batch` pops the round-robin head job, then
gathers up to ``batch_max - 1`` further jobs with the same
:func:`~repro.service.protocol.batch_signature` from every tenant's queue
(round-robin order, any queue position — jobs are independent and clients
match results by ``job_id``, so reordering within a tenant is observable
only as completion order).  The batch runs as one executor round-trip
(:func:`~repro.service.jobs.run_job_batch`): its phase-engine sorts,
whatever their fault sets, run one executor call per program skeleton and
block size, and a plan batch's later jobs hit the plan its first job
cached.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.service.protocol import JobSpec, batch_signature

__all__ = ["FairQueue", "QueueFull", "QueuedJob", "TokenBucket"]


class QueueFull(Exception):
    """Admission rejected: the global or per-tenant bound is exhausted.

    Attributes:
        scope: ``"global"`` or ``"tenant"`` — which bound rejected.
    """

    def __init__(self, scope: str, limit: int):
        super().__init__(f"{scope} queue limit {limit} reached")
        self.scope = scope
        self.limit = limit


class TokenBucket:
    """Per-tenant admission rate limiter (``jobs_per_sec`` with burst).

    A classic monotonic-clock token bucket: :meth:`try_take` refills by
    elapsed time, takes one token when one is available, and otherwise
    returns the *seconds until the next token* — the server turns that
    into the ``retry_after_ms`` of a ``rate_limited`` rejection, so a
    well-behaved client backs off for exactly as long as the bucket
    needs, not a guess.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: int, now: float | None = None):
        if rate <= 0:
            raise ValueError(f"rate must be > 0 jobs/sec, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic() if now is None else now

    def try_take(self, now: float | None = None) -> float:
        """Take one token if possible; return 0.0, else seconds to wait."""
        now = time.monotonic() if now is None else now
        self.tokens = min(self.burst,
                          self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass
class QueuedJob:
    """One admitted job waiting for (or undergoing) dispatch.

    Attributes:
        job_id: server-assigned id (``"j<seq>"``), unique per process.
        tenant: submitting tenant.
        spec: the validated job.
        client_id: client-chosen ``id`` echoed back in the result push.
        conn: opaque connection handle the result is delivered to (the
            server's per-connection state; ``None`` in library use).
        enqueued_at: ``perf_counter()`` at admission (queue-delay metric).
    """

    job_id: str
    tenant: str
    spec: JobSpec
    client_id: object = None
    conn: object = None
    enqueued_at: float = 0.0
    signature: tuple | None = field(init=False)

    def __post_init__(self) -> None:
        self.signature = batch_signature(self.spec)


class FairQueue:
    """Bounded per-tenant FIFO queues with a round-robin service cursor."""

    def __init__(self, max_queued: int = 1024, max_queued_per_tenant: int = 512):
        if max_queued < 1 or max_queued_per_tenant < 1:
            raise ValueError("queue bounds must be >= 1")
        self.max_queued = int(max_queued)
        self.max_queued_per_tenant = int(max_queued_per_tenant)
        self._queues: dict[str, deque[QueuedJob]] = {}
        self._rr: deque[str] = deque()  # tenant service order (rotates)
        self.depth = 0

    def put(self, job: QueuedJob) -> int:
        """Admit ``job``; return the new global depth.

        Raises:
            QueueFull: when the global or the tenant bound is exhausted.
        """
        if self.depth >= self.max_queued:
            raise QueueFull("global", self.max_queued)
        q = self._queues.get(job.tenant)
        if q is None:
            q = self._queues[job.tenant] = deque()
            self._rr.append(job.tenant)
        if len(q) >= self.max_queued_per_tenant:
            raise QueueFull("tenant", self.max_queued_per_tenant)
        q.append(job)
        self.depth += 1
        return self.depth

    def pop_batch(self, batch_max: int = 1) -> list[QueuedJob]:
        """Next round-robin job plus compatible batch-mates (maybe empty).

        The head comes from the first non-empty tenant queue in round-robin
        order; the cursor advances past that tenant so its next job waits
        its turn.  When the head is batchable, matching jobs are collected
        from every tenant (starting with the tenants the cursor favors
        next) until ``batch_max`` is reached.
        """
        head = self._pop_rr()
        if head is None:
            return []
        batch = [head]
        if head.signature is not None and batch_max > 1:
            for tenant in list(self._rr):
                if len(batch) >= batch_max:
                    break
                q = self._queues[tenant]
                keep: deque[QueuedJob] = deque()
                while q and len(batch) < batch_max:
                    job = q.popleft()
                    if job.signature == head.signature:
                        batch.append(job)
                    else:
                        keep.append(job)
                keep.extend(q)
                self._queues[tenant] = keep
            self.depth -= len(batch) - 1
        return batch

    def _pop_rr(self) -> QueuedJob | None:
        """Pop the head of the first non-empty queue in round-robin order."""
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            q = self._queues[tenant]
            if q:
                self.depth -= 1
                return q.popleft()
        return None

    def tenant_depths(self) -> dict[str, int]:
        """Per-tenant queued counts (tenants stay listed once seen)."""
        return {t: len(q) for t, q in sorted(self._queues.items())}

    def __len__(self) -> int:
        return self.depth
