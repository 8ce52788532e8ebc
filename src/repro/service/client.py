"""Asyncio client for the sorting service (used by the CLI, tests, bench).

A :class:`ServiceClient` owns one connection and one background reader
task.  The reader demultiplexes the message streams the server produces
on a single socket: request *replies* (matched to their waiting coroutine
by the client-chosen ``id``), pushed job *results* (matched by
server-assigned ``job_id``, stashed until someone awaits them — a result
may legally arrive before the submitting coroutine has even seen its
ack), and streamed-result frames (``result_header`` / ``result_frame`` /
``result_end``), which land in a per-job frame queue consumed by
:meth:`iter_result`.  Binary frames read their payload bytes straight off
the socket inside the reader loop — the only place the byte position is
known.

The submit helper exercises the protocol the way a well-behaved tenant
should: ``queue_full`` and ``rate_limited`` rejections are not errors but
scheduling hints, so ``submit(..., retry=True)`` sleeps for the server's
``retry_after_ms`` hint and resubmits.  The sleep is *jittered* — a
uniform draw in [0.5, 1.5) x the hint, from a seedable per-client RNG —
so a thundering herd of clients rejected together does not resubmit
together, re-collide, and re-reject in lockstep (the classic retry
synchronization failure); seeding makes backoff sequences reproducible in
tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import itertools
import random

import numpy as np

from repro.service.protocol import JobSpec, ProtocolError, decode_line, encode
from repro.service.streams import StreamError, verify_frame

__all__ = ["ServiceClient"]

#: Rejection kinds that are backpressure (retryable by policy), not errors.
_RETRYABLE = ("queue_full", "rate_limited")


def _retry_delay_s(retry_after_ms, rng: random.Random) -> float:
    """Jittered backoff: uniform in [0.5, 1.5) x the server's hint."""
    try:
        hint = max(1.0, float(retry_after_ms))
    except (TypeError, ValueError):
        hint = 100.0
    return hint * (0.5 + rng.random()) / 1e3


class _StreamState:
    """Client-side state of one incoming result stream."""

    __slots__ = ("queue", "header")

    def __init__(self):
        self.queue: asyncio.Queue = asyncio.Queue()
        self.header: dict | None = None


class ServiceClient:
    """One connection to a :class:`~repro.service.server.SortingService`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 jitter_seed: int | None = None):
        self._reader = reader
        self._writer = writer
        self._rng = random.Random(jitter_seed)
        self._seq = itertools.count()
        self._pending: dict[str, asyncio.Future] = {}  # request id -> reply
        self._waiters: dict[str, asyncio.Future] = {}  # job_id -> result
        self._results: dict[str, dict] = {}  # results nobody awaits yet
        self._streams: dict[str, _StreamState] = {}  # job_id -> frame queue
        self._stream_summaries: dict[str, dict] = {}  # job_id -> result_end
        self._closed = False
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="repro-client-reader")

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 0,
                      limit: int = 1 << 26,
                      jitter_seed: int | None = None) -> "ServiceClient":
        """Connect to a server.

        ``limit`` raises asyncio's per-line buffer (default 64 KiB) far
        enough for the non-streamed baseline's giant inline-base64 result
        lines; streamed results never need it.
        """
        reader, writer = await asyncio.open_connection(host, port, limit=limit)
        return cls(reader, writer, jitter_seed=jitter_seed)

    # -- demultiplexing ------------------------------------------------------

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    msg = decode_line(line)
                except ProtocolError:  # pragma: no cover - server is trusted
                    continue
                if (msg.get("op") == "result_frame"
                        and isinstance(msg.get("nbytes"), int)):
                    # Binary transport: the frame payload is the next
                    # nbytes on the wire, and only this loop may read it.
                    msg["_data"] = await self._reader.readexactly(
                        msg["nbytes"])
                self._route(msg)
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            error = exc
        finally:
            self._closed = True
            for fut in (*self._pending.values(), *self._waiters.values()):
                if not fut.done():
                    fut.set_exception(error)
            self._pending.clear()
            self._waiters.clear()
            for state in self._streams.values():
                state.queue.put_nowait(("error", error))

    def _route(self, msg: dict) -> None:
        op = msg.get("op")
        job_id = msg.get("job_id")
        if op == "result_header":
            self._stream_state(job_id).queue.put_nowait(("header", msg))
            return
        if op == "result_frame":
            self._stream_state(job_id).queue.put_nowait(("frame", msg))
            return
        if op == "result_end":
            self._stream_state(job_id).queue.put_nowait(("end", msg))
            return
        if op == "result":
            state = self._streams.get(job_id)
            if state is not None:
                # A streamed job that failed before its header (executor
                # error) answers with a plain result; the stream consumer
                # surfaces it as the terminal message.
                state.queue.put_nowait(("end", msg))
                return
            waiter = self._waiters.pop(job_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(msg)
            else:
                self._results[job_id] = msg
            return
        fut = self._pending.pop(msg.get("id"), None)
        if fut is not None and not fut.done():
            fut.set_result(msg)

    def _stream_state(self, job_id: str) -> _StreamState:
        state = self._streams.get(job_id)
        if state is None:
            state = self._streams[job_id] = _StreamState()
        return state

    async def _request(self, message: dict) -> dict:
        if self._closed:
            raise ConnectionError("client is closed")
        rid = f"c{next(self._seq)}"
        message["id"] = rid
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        self._writer.write(encode(message))
        await self._writer.drain()
        return await fut

    async def _send(self, message: dict) -> None:
        """Fire-and-forget (acks and stream_done take no reply)."""
        if self._closed:
            return
        self._writer.write(encode(message))
        await self._writer.drain()

    # -- protocol ops --------------------------------------------------------

    async def submit(
        self,
        job: dict | JobSpec,
        tenant: str = "default",
        retry: bool = False,
        max_tries: int = 1000,
        transport: str | None = None,
    ) -> dict:
        """Submit one job; returns the ack (``ok``/``job_id`` or rejection).

        With ``retry=True``, ``queue_full`` and ``rate_limited``
        rejections are absorbed by sleeping for a jittered multiple of the
        server's ``retry_after_ms`` hint and resubmitting (up to
        ``max_tries``); any other rejection is returned as-is.
        ``transport`` picks the streamed-result frame transport
        (``"binary"``/``"shm"``) for jobs submitted with ``stream``.
        """
        payload = job.to_dict() if isinstance(job, JobSpec) else dict(job)
        message = {"op": "submit", "tenant": tenant, "job": payload}
        if transport is not None:
            message["transport"] = transport
        for _ in range(max(1, max_tries)):
            ack = await self._request(dict(message))
            if ack.get("ok") or not retry or ack.get("error") not in _RETRYABLE:
                if ack.get("ok") and payload.get("stream"):
                    # Pre-register the stream so frames racing ahead of
                    # the awaiting consumer are queued, never dropped.
                    state = self._stream_state(ack["job_id"])
                    # A pre-stream failure's plain result can outrun this
                    # registration; reroute it into the stream queue.
                    early = self._results.pop(ack["job_id"], None)
                    if early is not None:
                        state.queue.put_nowait(("end", early))
                return ack
            await asyncio.sleep(
                _retry_delay_s(ack.get("retry_after_ms", 100), self._rng))
        return ack

    async def result(self, job_id: str) -> dict:
        """Await the pushed result for an accepted (non-streamed) ``job_id``."""
        msg = self._results.pop(job_id, None)
        if msg is not None:
            return msg
        if self._closed:
            raise ConnectionError("client is closed")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[job_id] = fut
        return await fut

    async def submit_and_wait(self, job: dict | JobSpec, tenant: str = "default",
                              retry: bool = True) -> dict:
        """Convenience: submit (with retry) and await the result.

        Raises:
            RuntimeError: when the submit is rejected (e.g. draining).
        """
        ack = await self.submit(job, tenant=tenant, retry=retry)
        if not ack.get("ok"):
            raise RuntimeError(f"submit rejected: {ack.get('error')}"
                               f" ({ack.get('detail', '')})")
        return await self.result(ack["job_id"])

    # -- streamed results ----------------------------------------------------

    async def iter_result(self, job_id: str):
        """Async-iterate the frames of a streamed result as ndarray chunks.

        Each yielded chunk is materialized (copied out of the socket or
        the shm arena), checksum-verified, and *then* acked — so the
        server's in-flight window meters actual consumption, and at most
        ``window`` frames of data exist on this side at once.  After the
        last frame the ``result_end`` summary is available from
        :meth:`stream_summary`.

        Raises:
            StreamError: the stream ended abnormally (``retryable`` set
                for a stall); StreamChecksumError on a frame
                whose ABFT count/sum does not match its payload.
        """
        state = self._stream_state(job_id)
        arenas: dict[str, object] = {}
        try:
            while True:
                kind, msg = await state.queue.get()
                if kind == "error":
                    raise msg if isinstance(msg, BaseException) \
                        else ConnectionError(str(msg))
                if kind == "header":
                    state.header = msg
                    continue
                if kind == "frame":
                    chunk = self._materialize(msg, arenas)
                    verify_frame(msg, chunk)
                    await self._send({"op": "frame_ack", "job_id": job_id,
                                      "seq": msg["seq"]})
                    if chunk.size:
                        yield chunk
                    continue
                # kind == "end": result_end trailer, or a plain result
                # (pre-stream failure) acting as one.
                self._stream_summaries[job_id] = msg
                if msg.get("op") == "result_end" and msg.get("ok"):
                    await self._send({"op": "stream_done", "job_id": job_id})
                if not msg.get("ok"):
                    raise StreamError(msg)
                return
        finally:
            for arena in arenas.values():
                arena.release()
            self._streams.pop(job_id, None)

    def _materialize(self, msg: dict, arenas: dict):
        """Copy one frame's payload into a fresh ndarray."""
        if "_data" in msg:
            dtype = np.dtype((self.stream_header(msg["job_id"]) or {})
                             .get("dtype", "<f8"))
            return np.frombuffer(msg.pop("_data"), dtype=dtype).copy()
        ref_dict = msg.get("shm")
        if not isinstance(ref_dict, dict):
            raise StreamError({"error": "malformed_frame", "seq": msg.get("seq")})
        from repro import shm

        ref = shm.ShmRef(ref_dict["segment"], ref_dict["offset"],
                         ref_dict["nbytes"], ref_dict.get("kind", "ndarray"),
                         tuple(ref_dict.get("shape", ())),
                         ref_dict.get("dtype", "<f8"))
        arena = arenas.get(ref.segment)
        if arena is None:
            try:
                arena = arenas[ref.segment] = shm.Arena.attach(ref.segment)
            except (FileNotFoundError, OSError):
                # The producer (or its sweeper) unlinked the segment under
                # us — an aborted stream; resubmittable.
                raise StreamError({"error": "segment_gone",
                                   "seq": msg.get("seq"),
                                   "retryable": True}) from None
        return arena.read(ref)

    def stream_header(self, job_id: str) -> dict | None:
        """The ``result_header`` of an in-progress stream (``None`` early)."""
        state = self._streams.get(job_id)
        return state.header if state is not None else None

    def stream_summary(self, job_id: str) -> dict | None:
        """The ``result_end`` trailer of a consumed stream."""
        return self._stream_summaries.get(job_id)

    async def collect_stream(self, job_id: str) -> np.ndarray:
        """Consume a whole stream into one array (tests/CLI convenience).

        Defeats the memory benefit by construction — use
        :meth:`iter_result` when the point is bounded RSS.
        """
        chunks = [chunk async for chunk in self.iter_result(job_id)]
        if not chunks:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(chunks)

    async def ping(self) -> dict:
        return await self._request({"op": "ping"})

    async def stats(self) -> dict:
        reply = await self._request({"op": "stats"})
        return reply.get("stats", {})

    async def drain(self) -> dict:
        """Ask the server to drain; returns the drained summary."""
        return await self._request({"op": "drain"})

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        for state in self._streams.values():
            state.queue.put_nowait(
                ("error", ConnectionError("client is closed")))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
