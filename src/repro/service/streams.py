"""Result streaming: frame planning + ABFT checksums (server and client).

A streamed sort result never crosses the wire as one pickled/JSON blob.
The server chunks the sorted array into frames of ``chunk`` keys and
sends::

    result_header   frames, count, dtype, chunk
    result_frame    seq, count, sum, nbytes, then exactly nbytes raw
                    bytes immediately after the line
    ...
    result_end      the usual result summary + stream totals

The client's peak memory is bounded by the window, not by the result:
that is where the streamed path's memory win over the inline base64
result comes from.

Flow control is a bounded in-flight window: the server stops sending when
``sent - acked >= window`` and resumes on the client's ``frame_ack``; the
client acks a frame only after materializing and verifying it, so a slow
consumer throttles the producer instead of ballooning either side's
memory.  Every frame carries the ABFT pair the checksum-sorting literature
uses — element count and exact float64 sum — computed on the array slice
at send time and recomputed on the materialized chunk at receive time;
numpy's pairwise summation is deterministic for identical buffers, so the
comparison is exact, not a tolerance.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_KEYS",
    "DEFAULT_WINDOW",
    "StreamChecksumError",
    "StreamError",
    "frame_checksum",
    "plan_frames",
    "verify_frame",
]

#: Keys per frame (512 KiB of float64) — small enough that a client
#: holding one materialized chunk stays far under the whole-array RSS,
#: large enough that per-frame overhead is noise.
DEFAULT_CHUNK_KEYS = 1 << 16

#: Frames the server may have in flight beyond the highest ack.
DEFAULT_WINDOW = 8


class StreamError(RuntimeError):
    """A stream ended abnormally (stalled, job failed, server error).

    Attributes:
        message: the terminating protocol message.
        retryable: the server marked the failure safe to resubmit.
    """

    def __init__(self, message: dict):
        self.message = dict(message)
        self.retryable = bool(message.get("retryable"))
        super().__init__(message.get("error") or "stream failed")


class StreamChecksumError(StreamError):
    """A frame's ABFT count/sum did not match its materialized payload."""


def plan_frames(count: int, chunk: int) -> list[tuple[int, int]]:
    """``(start, length)`` per frame for ``count`` keys chunked by ``chunk``."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if count <= 0:
        return [(0, 0)]
    return [(start, min(chunk, count - start))
            for start in range(0, count, chunk)]


def frame_checksum(chunk: np.ndarray) -> tuple[int, float]:
    """The ABFT pair for one frame: ``(element count, exact float64 sum)``."""
    arr = np.asarray(chunk)
    return int(arr.size), float(arr.sum(dtype=np.float64))


def verify_frame(msg: dict, chunk: np.ndarray) -> None:
    """Recompute a materialized frame's checksum against its header.

    Raises:
        StreamChecksumError: on any count or sum mismatch — corrupted
            bytes on the wire or a server bug; never ignorable.
    """
    count, total = frame_checksum(chunk)
    if count != msg.get("count") or total != msg.get("sum"):
        raise StreamChecksumError({
            "error": "frame_checksum",
            "seq": msg.get("seq"),
            "expected": {"count": msg.get("count"), "sum": msg.get("sum")},
            "got": {"count": count, "sum": total},
        })
