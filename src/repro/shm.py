"""Shared-memory arenas: zero-pickle transport for bulk task payloads.

The process-pool executor pays for every key block and result array twice
per hop: ``pickle.dumps`` in the sender, a pipe write/read bounded by the
OS pipe buffer, and ``pickle.loads`` in the receiver.  For the simulator's
payloads — large contiguous float arrays, rendered SVG/CSV artifacts —
that serialization is pure overhead: the bytes are already in exactly the
layout the other side wants.  This module provides the alternative the
ABFT literature's "touch the data once" principle asks for: the bulk
payload is written into a named :class:`multiprocessing.shared_memory`
segment (an *arena*) and the object graph that crosses the process
boundary carries only tiny :class:`ShmRef` descriptors —
``(segment, offset, shape, dtype)`` — in its place.

Design rules, chosen so lifecycle stays provable:

* **Write once, copy out.**  An arena is bump-allocated by its creator,
  then treated as immutable.  Readers *copy* payloads out and close their
  mapping immediately (zero-*pickle*, not zero-copy) — so no object that
  outlives the arena can dangle into freed shared memory.
* **Deterministic names, parent-side registry.**  Segment names embed the
  creating PID and a monotonic counter, and every name the parent expects
  to exist is recorded in a module registry *before* any worker creates
  it.  Teardown — normal completion, interrupt, or exit — sweeps the
  registry with :func:`sweep` (attach + unlink, absent names ignored), so
  an aborted run cannot leave orphaned ``/dev/shm`` segments behind.
* **Small payloads stay pickled.**  Below :data:`LEAF_MIN_BYTES` the
  descriptor + attach + copy round-trip costs more than ``pickle`` does;
  packing leaves such leaves inline (see docs/PERFORMANCE.md for the
  break-even measurement).

:mod:`repro.parallel` is the only intended consumer (its ``executor=
"shm"`` tier), but the pack/unpack helpers are generic: they walk tuples,
lists and dicts, and lift :class:`numpy.ndarray`, :class:`bytes` and
:class:`str` leaves into the arena.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


def _untrack(name: str) -> None:
    """Send one unregister for ``name`` to this process's OS tracker.

    Python 3.11 registers a segment with the per-process resource tracker
    on *attach* as well as on create, and ``SharedMemory.unlink`` sends
    exactly one unregister — so any segment observed more than once in a
    process (read then swept), or owned by a different process than the
    one that unlinks it, leaves the trackers unbalanced: a dangling entry
    prints "leaked shared_memory objects" warnings at shutdown, a missing
    one prints KeyError tracebacks.  Lifecycle here is owned by this
    module's name registry, so every non-owning observation is untracked
    immediately (``Arena.release``, worker-side named creates) and
    :func:`sweep` settles the owner's entry via :data:`_TRACKED`.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass

__all__ = [
    "ARENA_PREFIX",
    "Arena",
    "LEAF_MIN_BYTES",
    "ShmRef",
    "acquire_lease",
    "collect_leaf_bytes",
    "lease_count",
    "make_name",
    "pack",
    "pack_results",
    "payload_nbytes",
    "registered_names",
    "register_name",
    "release_lease",
    "shm_available",
    "sweep",
    "sweep_registered",
    "unpack",
    "unpack_results",
]

#: Prefix of every segment this module creates (leak tests glob for it).
ARENA_PREFIX = "repro_shm"

#: Per-leaf break-even: payloads smaller than this pickle faster than a
#: descriptor + attach + memcpy round-trip (measured; docs/PERFORMANCE.md).
LEAF_MIN_BYTES = 4096

#: 64-byte slot alignment keeps ndarray views cache-line aligned.
_ALIGN = 64

_counter = itertools.count()
_lock = threading.Lock()
#: Names this process is responsible for sweeping (created here, or
#: assigned to a worker by a run that may be torn down mid-flight).
_LIVE: set[str] = set()
#: Names whose *create* registration still sits in this process's OS
#: resource tracker.  The tracker's cache is message-driven: every
#: register must be matched by exactly one unregister (a missing one
#: prints "leaked shared_memory" warnings at exit, an extra one prints a
#: KeyError traceback), so ownership transfers are tracked explicitly.
_TRACKED: set[str] = set()


def shm_available() -> bool:
    """True when POSIX shared memory is usable on this platform."""
    return _shared_memory is not None


def make_name(tag: str) -> str:
    """A fresh segment name: prefix + creating PID + tag + counter."""
    return f"{ARENA_PREFIX}_{os.getpid()}_{tag}_{next(_counter)}"


def register_name(name: str) -> None:
    """Record ``name`` for teardown sweeps (idempotent)."""
    with _lock:
        _LIVE.add(name)


def deregister_name(name: str) -> None:
    """Forget ``name`` (its segment was consumed and unlinked)."""
    with _lock:
        _LIVE.discard(name)


def registered_names() -> tuple[str, ...]:
    """Snapshot of the names currently registered for sweeping."""
    with _lock:
        return tuple(_LIVE)


def sweep(names) -> int:
    """Unlink every named segment that still exists; return how many did.

    Absent names are ignored — the registry records *expected* segments,
    and a worker cancelled before creating its result segment is the
    normal case, not an error.
    """
    removed = 0
    if _shared_memory is None:
        return removed
    for name in names:
        try:
            seg = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - platform quirk
            pass
        else:
            seg.close()
            try:
                seg.unlink()
                removed += 1
            except FileNotFoundError:  # pragma: no cover - raced another sweep
                pass
        # The attach/unlink pair above is self-balancing; a segment this
        # process *created* (and merely closed) still has its create
        # registration outstanding — settle it now.
        with _lock:
            created_here = name in _TRACKED
            _TRACKED.discard(name)
        if created_here:
            _untrack(name)
        deregister_name(name)
    return removed


def sweep_registered() -> int:
    """Sweep every registered name (teardown / atexit hook)."""
    return sweep(registered_names())


#: Read leases on named segments: a streamed result's arena stays alive
#: until every stream reading from it has signalled ``stream_done``; the
#: last :func:`release_lease` unlinks it.
_LEASES: dict[str, int] = {}


def acquire_lease(name: str, count: int = 1) -> int:
    """Take ``count`` read leases on ``name``; return the new total."""
    with _lock:
        total = _LEASES.get(name, 0) + int(count)
        _LEASES[name] = total
        return total


def lease_count(name: str) -> int:
    """Outstanding leases on ``name`` (0 once released/unlinked)."""
    with _lock:
        return _LEASES.get(name, 0)


def release_lease(name: str) -> int:
    """Drop one lease; unlink the segment when the last one goes.

    Releasing an unleased name sweeps it immediately — the caller is
    declaring the segment dead either way.  Returns the leases left.
    """
    with _lock:
        left = _LEASES.get(name, 0) - 1
        if left > 0:
            _LEASES[name] = left
        else:
            _LEASES.pop(name, None)
            left = 0
    if left == 0:
        sweep((name,))
    return left


class ShmRef:
    """Descriptor of one payload placed in an arena.

    A tiny, cheaply-picklable stand-in that crosses the process boundary
    instead of the payload itself.  ``kind`` is ``"ndarray"``, ``"bytes"``
    or ``"str"``; ``shape``/``dtype`` are meaningful for arrays only.
    """

    __slots__ = ("segment", "offset", "nbytes", "kind", "shape", "dtype")

    def __init__(self, segment: str, offset: int, nbytes: int, kind: str,
                 shape: tuple = (), dtype: str = ""):
        self.segment = segment
        self.offset = offset
        self.nbytes = nbytes
        self.kind = kind
        self.shape = shape
        self.dtype = dtype

    def __reduce__(self):
        return (ShmRef, (self.segment, self.offset, self.nbytes, self.kind,
                         self.shape, self.dtype))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShmRef({self.segment}+{self.offset}, {self.nbytes}B, "
                f"{self.kind}{self.shape})")


def _leaf_nbytes(obj) -> int:
    """Arena-eligible payload size of a leaf, or 0 when not eligible."""
    if isinstance(obj, np.ndarray):
        return 0 if obj.dtype.hasobject else int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        # Conservative size without encoding twice; exact length is
        # computed at placement time.
        return len(obj)
    return 0


def payload_nbytes(obj, _depth: int = 0) -> int:
    """Total bulk-payload bytes reachable in ``obj`` (containers walked).

    This is the volume a process-pool hop would have to pickle; the
    executor benchmark reports it as "pickled bytes" per tier.
    """
    if _depth > 8:
        return 0
    size = _leaf_nbytes(obj)
    if size:
        return size
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(item, _depth + 1) for item in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(item, _depth + 1) for item in obj.values())
    return 0


def collect_leaf_bytes(obj, _depth: int = 0) -> int:
    """Aligned arena size needed to pack ``obj`` (eligible leaves only)."""
    if _depth > 8:
        return 0
    size = _leaf_nbytes(obj)
    if size:
        return 0 if size < LEAF_MIN_BYTES else -(-size // _ALIGN) * _ALIGN + _ALIGN
    if isinstance(obj, (tuple, list)):
        return sum(collect_leaf_bytes(item, _depth + 1) for item in obj)
    if isinstance(obj, dict):
        return sum(collect_leaf_bytes(item, _depth + 1) for item in obj.values())
    return 0


class Arena:
    """One shared-memory segment, bump-allocated by its creator.

    Create with :meth:`create` (fresh segment, registered for sweeping) or
    :meth:`attach` (read side).  ``place`` copies a payload in and returns
    its :class:`ShmRef`; ``read`` copies a payload out.  ``close`` drops
    this process's mapping; ``unlink`` destroys the segment system-wide.
    """

    def __init__(self, seg, name: str, created: bool):
        self._seg = seg
        self.name = name
        self.created = created
        self._cursor = 0
        self.used = 0

    @classmethod
    def create(cls, tag_or_name: str, size: int, named: bool = False) -> "Arena":
        """Allocate a fresh segment (named exactly, or by a fresh tag)."""
        if _shared_memory is None:
            raise OSError("shared memory is not available on this platform")
        name = tag_or_name if named else make_name(tag_or_name)
        seg = _shared_memory.SharedMemory(name=name, create=True,
                                          size=max(int(size), 1))
        if named:
            # Parent-assigned name: the parent pre-registered it for
            # sweeping and will unlink it, so this (worker) process must
            # not hold a tracker entry the parent's unlink never clears.
            _untrack(name)
        else:
            with _lock:
                _TRACKED.add(name)
        register_name(name)
        return cls(seg, name, created=True)

    @classmethod
    def attach(cls, name: str) -> "Arena":
        if _shared_memory is None:
            raise OSError("shared memory is not available on this platform")
        return cls(_shared_memory.SharedMemory(name=name), name, created=False)

    def place(self, obj) -> ShmRef:
        """Copy one eligible leaf into the arena; return its descriptor."""
        if isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            ref = ShmRef(self.name, self._cursor, arr.nbytes, "ndarray",
                         arr.shape, arr.dtype.str)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self._seg.buf,
                              offset=self._cursor)
            view[...] = arr
            payload = arr.nbytes
        else:
            data = obj.encode("utf-8") if isinstance(obj, str) else bytes(obj)
            kind = "str" if isinstance(obj, str) else "bytes"
            ref = ShmRef(self.name, self._cursor, len(data), kind)
            self._seg.buf[self._cursor:self._cursor + len(data)] = data
            payload = len(data)
        self._cursor += -(-payload // _ALIGN) * _ALIGN
        self.used += payload
        return ref

    def view(self, ref: ShmRef, start: int = 0, count: int | None = None):
        """Zero-copy ndarray view of (a slice of) an array payload.

        ``start``/``count`` are in elements of the ref's dtype.  The view
        aliases the mapping — valid only while this arena stays open; the
        streaming server copies nothing, computes frame checksums on the
        view, and drops it before release.
        """
        if ref.kind != "ndarray":
            raise TypeError(f"view() needs an ndarray ref, got {ref.kind!r}")
        dt = np.dtype(ref.dtype)
        total = ref.nbytes // dt.itemsize
        if count is None:
            count = total - start
        if start < 0 or count < 0 or start + count > total:
            raise ValueError(
                f"slice [{start}:{start + count}] out of bounds for {total}")
        return np.ndarray((count,), dtype=dt, buffer=self._seg.buf,
                          offset=ref.offset + start * dt.itemsize)

    def read(self, ref: ShmRef):
        """Copy one payload out of the arena (safe after :meth:`close`)."""
        if ref.kind == "ndarray":
            view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                              buffer=self._seg.buf, offset=ref.offset)
            return view.copy()
        data = bytes(self._seg.buf[ref.offset:ref.offset + ref.nbytes])
        return data.decode("utf-8") if ref.kind == "str" else data

    def close(self) -> None:
        self._seg.close()

    def release(self) -> None:
        """Reader-side close: drop the mapping *and* the tracker entry
        this attach created (a reader that will never unlink must not
        leave a registration for someone else's unlink to miss)."""
        self._seg.close()
        if not self.created:
            _untrack(self.name)

    def unlink(self) -> None:
        """Destroy the segment and drop it from the sweep registry.

        ``SharedMemory.unlink`` sends the one unregister that balances
        whichever observation this process made (its create, or the
        attach that preceded an owning unlink).
        """
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - raced a sweep
            pass
        with _lock:
            _TRACKED.discard(self.name)
        deregister_name(self.name)


class _AttachCache:
    """Read-side cache of attached arenas; tracks bytes copied out."""

    def __init__(self):
        self._arenas: dict[str, Arena] = {}
        self.bytes_read = 0

    def read(self, ref: ShmRef):
        arena = self._arenas.get(ref.segment)
        if arena is None:
            arena = Arena.attach(ref.segment)
            self._arenas[ref.segment] = arena
        self.bytes_read += ref.nbytes
        return arena.read(ref)

    def close(self, unlink: bool = False) -> None:
        for arena in self._arenas.values():
            if unlink:
                arena.close()
                arena.unlink()
            else:
                arena.release()
        self._arenas.clear()


def pack(obj, arena: Arena, _depth: int = 0):
    """Replace big leaves of ``obj`` with :class:`ShmRef` descriptors."""
    if _depth > 8:
        return obj
    size = _leaf_nbytes(obj)
    if size >= LEAF_MIN_BYTES:
        return arena.place(obj)
    if isinstance(obj, tuple):
        return tuple(pack(item, arena, _depth + 1) for item in obj)
    if isinstance(obj, list):
        return [pack(item, arena, _depth + 1) for item in obj]
    if isinstance(obj, dict):
        return {key: pack(item, arena, _depth + 1) for key, item in obj.items()}
    return obj


def unpack(obj, cache: _AttachCache, _depth: int = 0):
    """Inverse of :func:`pack`: resolve descriptors back into payloads."""
    if isinstance(obj, ShmRef):
        return cache.read(obj)
    if _depth > 8:
        return obj
    if isinstance(obj, tuple):
        return tuple(unpack(item, cache, _depth + 1) for item in obj)
    if isinstance(obj, list):
        return [unpack(item, cache, _depth + 1) for item in obj]
    if isinstance(obj, dict):
        return {key: unpack(item, cache, _depth + 1) for key, item in obj.items()}
    return obj


def pack_results(results: list, name: str) -> tuple:
    """Worker side: pack a result list into the segment the parent named.

    Returns ``("shm", packed, arena_bytes)`` when a segment was created,
    or ``("inline", results, 0)`` when the payload volume is below the
    break-even (or shared memory is unusable) — the parent handles both.
    """
    size = sum(collect_leaf_bytes(r) for r in results)
    if size == 0 or not shm_available():
        return ("inline", results, 0)
    try:
        arena = Arena.create(name, size, named=True)
    except OSError:  # pragma: no cover - /dev/shm full or forbidden
        return ("inline", results, 0)
    try:
        packed = [pack(r, arena) for r in results]
    finally:
        arena.close()
    return ("shm", packed, arena.used)


def unpack_results(tagged: tuple) -> tuple[list, int]:
    """Parent side: resolve a :func:`pack_results` payload; unlink segments.

    Returns ``(results, arena_bytes)`` — the bytes that travelled through
    shared memory instead of the pickle pipe.
    """
    tag, payload, moved = tagged
    if tag == "inline":
        return payload, 0
    cache = _AttachCache()
    try:
        results = [unpack(item, cache) for item in payload]
    finally:
        cache.close(unlink=True)
    return results, moved
