"""Deterministic fault injectors shared by every execution backend.

Two injector families, both *seeded and stateless per decision* so that
every route — the pure-Python ``loop`` kernels, the ``compiled`` tier's
vectorized kernels and its whole-schedule executor, and the message-level
SPMD engine — makes byte-identical fault decisions for the same seed:

* :class:`ComparisonInjector` — persistent random comparator lies (the
  Geissmann et al. model): a comparison between keys ``x`` and ``y`` is
  flipped with probability ``p``, and the *same unordered pair always
  lies the same way*, forever.  The decision is a pure hash of the pair's
  IEEE-754 bit patterns mixed with the seed, so it is symmetric in its
  operands (both SPMD partners of a compare-exchange reach the same —
  possibly wrong — conclusion, as a shared faulty comparator module
  would), and identical whether the comparison is evaluated one scalar at
  a time, as a 1-D duel, or as a batched 2-D substage.  Pairs involving
  non-finite keys never lie: the ``+inf`` padding dummies of
  :mod:`repro.core.blocks` keep comparing truthfully, which (by a 0-1
  argument: all finite keys project to 0, and equal-value flips are
  no-ops) pins them to the tail of the output where ``strip_padding``
  expects them.

* :class:`MemoryInjector` — silent memory-cell corruption at block load,
  just before the local heapsort of paper step 3: each key cell is
  independently overwritten with probability ``alpha`` by a deterministic
  replacement value (an integral float in ``[0, 10^6)``, guaranteed to
  differ from the original).  The hook point is
  :func:`repro.core.blocks.pad_and_chunk` — the single chokepoint every
  engine funnels key distribution through — so the corrupted multiset is
  identical across backends.

Injectors are activated through module-level context managers
(:func:`comparison_faults`, :func:`memory_faults`); the active injector
lives in *thread-local* slots — campaign worker processes each activate
their own, and a job the service runs on its executor thread sees only
the injector that thread activated.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "ComparisonInjector",
    "MemoryInjector",
    "active_comparison",
    "active_memory",
    "comparison_faults",
    "memory_faults",
]

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_FULL = float(2**64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays (wrapping)."""
    with np.errstate(over="ignore"):
        z = (z + _GAMMA).astype(_U64)
        z = ((z ^ (z >> _U64(30))) * _MIX1).astype(_U64)
        z = ((z ^ (z >> _U64(27))) * _MIX2).astype(_U64)
        return z ^ (z >> _U64(31))


def _threshold(prob: float) -> np.uint64:
    """Probability as a 64-bit acceptance threshold (``hash < threshold``).

    Monotone by construction: a larger ``prob`` strictly enlarges the set
    of hashes that fire, so the decisions at ``p1 < p2`` are nested.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {prob}")
    return _U64(2**64 - 1) if prob >= 1.0 else _U64(int(prob * _FULL))


def _bits(values: np.ndarray) -> np.ndarray:
    """IEEE-754 bit patterns of a float64 array (copy when non-contiguous)."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return arr.view(_U64)


class ComparisonInjector:
    """Persistent random comparison faults with rate ``p``.

    Attributes:
        p / seed: the configured lie rate and decision seed.
        evaluated: comparisons consulted (recorded calls only).
        fired: lies that actually fired, total.
        fired_probe: the subset fired on probe (skip-decision) comparisons
            — each of those misroutes up to a whole block, so the
            tolerance-aware oracles track them separately.
    """

    kind = "comparison"

    def __init__(self, p: float, seed: int = 0):
        self.p = float(p)
        self.seed = int(seed)
        self._thresh = _threshold(self.p)
        self._seed_mix = _mix64(np.array([self.seed], dtype=_U64))[0]
        self.evaluated = 0
        self.fired = 0
        self.fired_probe = 0

    def flip_pairs(
        self, x: np.ndarray, y: np.ndarray, kind: str = "duel",
        record: bool = True,
    ) -> np.ndarray:
        """Boolean flip mask for elementwise comparisons of ``x`` vs ``y``.

        Symmetric (``flip_pairs(x, y) == flip_pairs(y, x)``) and pure:
        the mask depends only on the unordered value pairs and the seed.
        Non-finite operands (padding) never flip.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        xb, yb = _bits(x), _bits(y)
        lo = np.minimum(xb, yb)
        hi = np.maximum(xb, yb)
        h = _mix64(_mix64(lo ^ self._seed_mix) ^ hi)
        flips = (h < self._thresh) & np.isfinite(x) & np.isfinite(y)
        if record:
            self.evaluated += int(flips.size)
            fired = int(np.count_nonzero(flips))
            self.fired += fired
            if kind == "probe":
                self.fired_probe += fired
        return flips

    def flip_one(
        self, x: float, y: float, kind: str = "probe", record: bool = True
    ) -> bool:
        """Scalar form of :meth:`flip_pairs` (same hash, same decisions)."""
        return bool(
            self.flip_pairs(
                np.array([x]), np.array([y]), kind=kind, record=record
            )[0]
        )


class MemoryInjector:
    """Silent per-cell memory corruption with rate ``alpha``.

    Each key cell's fate is a pure hash of ``(seed, flat cell index)``, so
    the corrupted multiset is identical across backends and across runs.
    Replacement values are integral floats in ``[0, 10^6)`` — the key
    domain of the seeded campaigns — and always differ from the original.

    Attributes:
        corrupted: total cells overwritten so far.
        cells: flat indices of the overwritten cells, in hook-call order.
    """

    kind = "memory"

    def __init__(self, alpha: float, seed: int = 0):
        self.alpha = float(alpha)
        self.seed = int(seed)
        self._thresh = _threshold(self.alpha)
        self._seed_mix = _mix64(np.array([self.seed], dtype=_U64))[0]
        self.corrupted = 0
        self.cells: list[int] = []

    def corrupt(self, padded: np.ndarray, real_count: int) -> int:
        """Overwrite doomed cells of ``padded[:real_count]`` in place.

        Padding cells (indices at or beyond ``real_count``) are never
        touched — a corrupted ``+inf`` dummy would break collection rather
        than model a bad key.  Returns the number of cells overwritten.
        """
        if real_count <= 0 or self._thresh == 0:
            return 0
        idx = np.arange(real_count, dtype=_U64)
        h = _mix64(idx ^ self._seed_mix)
        hits = np.nonzero(h < self._thresh)[0]
        if hits.size:
            repl = np.floor(
                (_mix64(h[hits] ^ _GAMMA) >> _U64(11)).astype(np.float64)
                / float(2**53) * 1e6
            )
            clash = repl == padded[hits]
            repl[clash] = np.mod(repl[clash] + 1.0, 1e6)
            padded[hits] = repl
            self.corrupted += int(hits.size)
            self.cells.extend(int(i) for i in hits)
        return int(hits.size)


# One slot per thread: a scenario runs synchronously inside the thread
# that activated its injectors, so thread-local storage keeps a job on
# the service's executor thread apart from anything the event-loop
# thread activates (and is a no-op for the serial loop and pool workers,
# where each process has a single working thread).
_ACTIVE = threading.local()


def active_comparison() -> ComparisonInjector | None:
    """The comparison injector in effect *in this thread*, or ``None``
    (the common case)."""
    return getattr(_ACTIVE, "comparison", None)


def active_memory() -> MemoryInjector | None:
    """The memory injector in effect *in this thread*, or ``None`` (the
    common case)."""
    return getattr(_ACTIVE, "memory", None)


@contextmanager
def comparison_faults(injector: ComparisonInjector):
    """Activate ``injector`` for every comparison kernel in this thread."""
    previous = getattr(_ACTIVE, "comparison", None)
    _ACTIVE.comparison = injector
    try:
        yield injector
    finally:
        _ACTIVE.comparison = previous


@contextmanager
def memory_faults(injector: MemoryInjector):
    """Activate ``injector`` for block distribution in this thread."""
    previous = getattr(_ACTIVE, "memory", None)
    _ACTIVE.memory = injector
    try:
        yield injector
    finally:
        _ACTIVE.memory = previous
