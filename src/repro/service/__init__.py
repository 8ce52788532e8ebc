"""repro.service: sorting-as-a-service job server (S28, streaming in S30).

The package turns the library's one-shot entry points — fault-tolerant
sorts, partition planning, chaos scenarios — into a long-lived multi-tenant
job server sharing one warm worker pool and one process-wide plan cache
across every client, one server process per host:

* :mod:`repro.service.protocol` — the JSONL wire protocol and
  :class:`JobSpec` validation (the admission boundary for untrusted input).
* :mod:`repro.service.queue` — bounded admission, round-robin per-tenant
  fair queueing with compatible-job batching, and the per-tenant
  :class:`TokenBucket` rate limiter.
* :mod:`repro.service.jobs` — picklable job runners with per-job
  plan-cache delta attribution.
* :mod:`repro.service.streams` — result streaming: frame planning,
  per-frame count/sum ABFT checksums, bounded-window flow control.
* :mod:`repro.service.server` — the asyncio server: dispatchers, metrics,
  backpressure, arena-backed result streams, graceful drain (SIGTERM-safe).
* :mod:`repro.service.client` — asyncio client used by ``repro submit``,
  the tests, and the load benchmark (jittered backoff, stream consumption).

CLI: ``repro serve`` / ``repro submit [--stream]``.  Protocol and
operational semantics: docs/SERVICE.md.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import run_job, run_job_batch
from repro.service.protocol import (
    JOB_KINDS,
    JobSpec,
    ProtocolError,
    batch_signature,
    decode_line,
    encode,
)
from repro.service.queue import FairQueue, QueueFull, QueuedJob, TokenBucket
from repro.service.server import SortingService, serve
from repro.service.streams import (
    StreamChecksumError,
    StreamError,
    frame_checksum,
    plan_frames,
    verify_frame,
)

__all__ = [
    "JOB_KINDS",
    "FairQueue",
    "JobSpec",
    "ProtocolError",
    "QueueFull",
    "QueuedJob",
    "ServiceClient",
    "SortingService",
    "StreamChecksumError",
    "StreamError",
    "TokenBucket",
    "batch_signature",
    "decode_line",
    "encode",
    "frame_checksum",
    "plan_frames",
    "run_job",
    "run_job_batch",
    "serve",
    "verify_frame",
]
