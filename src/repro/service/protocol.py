"""JSONL wire protocol of the sorting service.

One JSON object per ``\\n``-terminated line, in both directions, over any
byte stream (TCP socket or the server process's stdin/stdout).  Requests
carry an ``op``; the server answers every request with exactly one reply
echoing the client-chosen ``id`` (when given), and additionally *pushes*
one ``op: "result"`` message per accepted job when it completes:

===========  =======================================================
op           meaning
===========  =======================================================
submit       enqueue a job: ``{"op": "submit", "tenant": "a", "job":
             {...}}`` -> ack ``{"ok": true, "status": "queued", "job_id":
             "j3"}`` or a rejection ``{"ok": false, "error":
             "queue_full", "retry_after_ms": 250}`` / ``{"ok": false,
             "error": "rate_limited", "scope": "jobs_per_sec", ...}`` /
             ``{"ok": false, "error": "draining"}``.  An optional
             ``"transport": "binary"|"shm"`` picks the frame transport
             for streamed jobs (``shm`` = zero-copy same-host).
ping         liveness probe -> ``{"ok": true, "op": "pong"}``
stats        queue depths, per-tenant counters, plan-cache stats
drain        stop admitting, finish in-flight, flush obs; the reply
             ``{"ok": true, "op": "drained", ...}`` arrives once the
             last job has completed
frame_ack    client -> server: ``{"op": "frame_ack", "job_id": "j3",
             "seq": 4}`` — advances the bounded in-flight frame window
             of a streamed result (no reply)
stream_done  client -> server: the stream was fully consumed; releases
             the server's arena read lease (no reply)
===========  =======================================================

Any other ``op`` is answered ``bad_request``: no client can write into
the server's plan cache, so one tenant cannot change another's plan.

A job submitted with ``"stream": true`` answers not with one ``result``
push but with a framed stream: ``result_header`` (frame count, dtype,
transport), ``result_frame`` × F — each carrying a per-frame count/sum
ABFT checksum and either a shm descriptor (``"shm": {...}``) or a
``"nbytes"`` field followed by exactly that many raw bytes on the wire —
and a ``result_end`` trailer with the usual result summary.

Job payloads are validated into frozen :class:`JobSpec` values before they
touch a queue; a malformed request is answered with ``{"ok": false,
"error": "bad_request", "detail": ...}`` and never crosses the admission
boundary.  The full message catalogue lives in docs/SERVICE.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "ProtocolError",
    "batch_signature",
    "decode_line",
    "encode",
]

#: Job kinds the server executes (see :mod:`repro.service.jobs`).
JOB_KINDS = ("sort", "plan", "chaos")

#: Hard sanity bounds enforced at admission: a single job may not request
#: a cube larger than Q_10 or more keys than this, whatever the queue
#: limits are — admission control bounds queue *length*, these bound the
#: work an individual accepted job can demand.
MAX_N = 10
MAX_KEYS = 1 << 20


class ProtocolError(ValueError):
    """A malformed or out-of-bounds request (answered, never raised out)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated job, as admitted to the queues.

    Attributes:
        kind: ``"sort"`` (run the fault-tolerant sort on seeded random
            keys and verify against ``np.sort``), ``"plan"`` (partition +
            Eq.-(1) selection only), or ``"chaos"`` (one seeded chaos
            scenario through the recovery supervisor).
        n: hypercube dimension.
        faults: faulty processor addresses (sort/plan).
        keys: number of keys to sort (sort).
        seed: RNG seed — keys are regenerated server-side from it, so the
            wire never carries key data.
        kernels: execution backend (``None`` = process default).
        backend: ``"phase"`` or ``"spmd"`` (sort).
        index: scenario index within the seeded stream (chaos).
        fault_class: registered fault universe the scenario draws from
            (chaos; see :mod:`repro.faults.universe`).
        fault_params: class-specific severity overrides as ``(name,
            value)`` pairs (chaos; empty = the class's stratified default).
        stream: deliver the sorted key array as a framed stream (sort
            only) instead of a scalar summary — see the module docstring.
        return_keys: include the sorted key array inline in the result as
            base64 (sort only; the pickled baseline the streaming path is
            benchmarked against).  Mutually exclusive with ``stream``.
    """

    kind: str
    n: int = 5
    faults: tuple[int, ...] = ()
    keys: int = 1024
    seed: int = 0
    kernels: str | None = None
    backend: str = "phase"
    index: int = 0
    fault_class: str = "baseline"
    fault_params: tuple[tuple[str, float], ...] = ()
    stream: bool = False
    return_keys: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["faults"] = list(self.faults)
        d["fault_params"] = {name: value for name, value in self.fault_params}
        return d

    @classmethod
    def from_dict(cls, raw: object) -> "JobSpec":
        """Validate an untrusted ``job`` payload into a spec.

        Raises:
            ProtocolError: on any malformed or out-of-bounds field.
        """
        if not isinstance(raw, dict):
            raise ProtocolError(f"job must be an object, got {type(raw).__name__}")
        kind = raw.get("kind")
        if kind not in JOB_KINDS:
            raise ProtocolError(f"job kind must be one of {JOB_KINDS}, got {kind!r}")
        unknown = set(raw) - {"kind", "n", "faults", "keys", "seed",
                              "kernels", "backend", "index",
                              "fault_class", "fault_params",
                              "stream", "return_keys"}
        if unknown:
            raise ProtocolError(f"unknown job fields: {sorted(unknown)}")

        def as_bool(field: str) -> bool:
            value = raw.get(field, False)
            if not isinstance(value, bool):
                raise ProtocolError(f"{field} must be a boolean, got {value!r}")
            return value

        stream = as_bool("stream")
        return_keys = as_bool("return_keys")
        if (stream or return_keys) and kind != "sort":
            raise ProtocolError(
                f"stream/return_keys apply to sort jobs only, got kind {kind!r}")
        if stream and return_keys:
            raise ProtocolError("stream and return_keys are mutually exclusive")

        def as_int(field: str, default: int, lo: int, hi: int) -> int:
            value = raw.get(field, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"{field} must be an integer, got {value!r}")
            if not lo <= value <= hi:
                raise ProtocolError(f"{field} must be in [{lo}, {hi}], got {value}")
            return value

        n = as_int("n", 5, 1, MAX_N)
        keys = as_int("keys", 1024, 1, MAX_KEYS)
        seed = as_int("seed", 0, 0, 2**63 - 1)
        index = as_int("index", 0, 0, 2**63 - 1)
        backend = raw.get("backend", "phase")
        if backend not in ("phase", "spmd"):
            raise ProtocolError(f"backend must be 'phase' or 'spmd', got {backend!r}")
        kernels = raw.get("kernels")
        if kernels not in (None, "numpy", "loop", "compiled"):
            raise ProtocolError(
                f"kernels must be 'numpy', 'loop' or 'compiled', got {kernels!r}")

        faults_raw = raw.get("faults", [])
        if not isinstance(faults_raw, (list, tuple)):
            raise ProtocolError(f"faults must be a list, got {faults_raw!r}")
        faults: list[int] = []
        for addr in faults_raw:
            if not isinstance(addr, int) or isinstance(addr, bool):
                raise ProtocolError(f"fault address {addr!r} is not an integer")
            if not 0 <= addr < (1 << n):
                raise ProtocolError(
                    f"fault address {addr} out of range for Q_{n}")
            if addr in faults:
                raise ProtocolError(f"fault address {addr} listed twice")
            faults.append(addr)
        if kind in ("sort", "plan") and len(faults) > n - 1:
            raise ProtocolError(
                f"{len(faults)} faults on Q_{n} exceed the paper's r <= n - 1")

        fault_class = raw.get("fault_class", "baseline")
        if not isinstance(fault_class, str):
            raise ProtocolError(
                f"fault_class must be a string, got {fault_class!r}")
        params_raw = raw.get("fault_params", {})
        if fault_class != "baseline" or params_raw:
            if kind != "chaos":
                raise ProtocolError(
                    f"fault_class/fault_params apply to chaos jobs only, "
                    f"got kind {kind!r}")
            from repro.faults.universe import fault_class_names

            if fault_class not in fault_class_names():
                raise ProtocolError(
                    f"unknown fault_class {fault_class!r} "
                    f"(registered: {', '.join(fault_class_names())})")
        if not isinstance(params_raw, dict):
            raise ProtocolError(
                f"fault_params must be an object, got {params_raw!r}")
        fault_params: list[tuple[str, float]] = []
        for name, value in sorted(params_raw.items()):
            if not isinstance(name, str):
                raise ProtocolError(f"fault_params key {name!r} is not a string")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ProtocolError(
                    f"fault_params[{name!r}] must be a number, got {value!r}")
            value = float(value)
            if not 0.0 <= value <= 1.0:
                raise ProtocolError(
                    f"fault_params[{name!r}] must be in [0, 1], got {value}")
            fault_params.append((name, value))
        return cls(kind=kind, n=n, faults=tuple(faults), keys=keys, seed=seed,
                   kernels=kernels, backend=backend, index=index,
                   fault_class=fault_class, fault_params=tuple(fault_params),
                   stream=stream, return_keys=return_keys)


def batch_signature(spec: JobSpec) -> tuple | None:
    """Compatibility key for job batching, or ``None`` when unbatchable.

    Jobs sharing a signature run back-to-back in one executor round-trip;
    for sorts/plans that means the first job of the batch plans and every
    later one replays from a warm cache.  Key data (``keys``/``seed``)
    deliberately stays out of the signature — compatibility is about the
    *planning* problem, not the payload.  Chaos scenarios are heterogeneous
    by construction and never batch.
    """
    if spec.kind == "sort":
        return ("sort", spec.n, spec.faults, spec.kernels, spec.backend)
    if spec.kind == "plan":
        return ("plan", spec.n, spec.faults)
    return None


def encode(message: dict) -> bytes:
    """One protocol message as a JSONL line (sorted keys: diff-stable)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one received line.

    Raises:
        ProtocolError: when the line is not a JSON object.
    """
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"message must be an object, got {type(obj).__name__}")
    return obj
