"""Phase-level synchronous simulation of a hypercube multicomputer.

The sorting algorithms in this repository are *synchronous* at the phase
granularity: every compare-split substage is a barrier-separated parallel
phase in which disjoint processor pairs exchange and compute.  The paper's
own cost analysis models exactly this — per-phase cost is the maximum over
participating processors of (communication + comparisons), and total time
is the sum over phases.

:class:`PhaseMachine` provides that accounting plus central storage of each
node's key block.  Algorithms:

1. hold keys with :meth:`set_block` / :meth:`get_block`,
2. open a phase (:meth:`phase` context manager),
3. charge per-node costs with :meth:`charge_transfer` / :meth:`charge_compute`,
4. close the phase — the global clock advances by the max charge.

Hop counts honor the fault model: with *partial* faults the VERTEX-style
router passes through faulty processors, so a transfer between nodes ``a``
and ``b`` takes ``HD(a, b)`` hops; with *total* faults the route must avoid
faulty nodes, and hops come from breadth-first distances on the surviving
subgraph (cached per machine).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cube.address import hamming_distance, validate_address
from repro.cube.topology import Hypercube
from repro.faults.model import FaultKind, FaultSet
from repro.obs.spans import NULL_TRACER, PID_SIM, TID_PHASES
from repro.plancache.cache import cached_route_table
from repro.simulator.params import MachineParams

__all__ = ["PhaseMachine", "PhaseRecord"]

# Shared immutable fallback for key-less nodes; get_block is on the charge
# accounting's hot path and must not allocate per call.
_EMPTY_BLOCK = np.empty(0, dtype=float)
_EMPTY_BLOCK.flags.writeable = False


@dataclass
class PhaseRecord:
    """Cost summary of one completed phase.

    Attributes:
        label: caller-supplied phase name (e.g. ``"intra[i=0,j=1]"``).
        duration: max over nodes of charged time in this phase.
        comparisons: total comparisons charged across all nodes.
        elements_sent: total element transfers (element count, not weighted
            by hops).
        element_hops: total element*hop products (link occupancy).
        messages: number of point-to-point transfers charged.
    """

    label: str
    duration: float = 0.0
    comparisons: int = 0
    elements_sent: int = 0
    element_hops: int = 0
    messages: int = 0


class PhaseMachine:
    """Synchronous phase-accounted hypercube machine.

    Args:
        n: hypercube dimension (``2**n`` processors).
        params: cost constants; defaults to :meth:`MachineParams.ncube7`.
        faults: optional fault configuration; affects hop counts (see
            module docstring) and forbids storing keys on faulty nodes.
        obs: optional :class:`repro.obs.Tracer`; when enabled, every phase
            is recorded as a simulated-time span (category ``"phase"``)
            and its traffic folds into the ``phase.*`` metrics.  Defaults
            to the disabled :data:`~repro.obs.NULL_TRACER` (one attribute
            check per phase).
    """

    def __init__(
        self,
        n: int,
        params: MachineParams | None = None,
        faults: FaultSet | None = None,
        obs=None,
    ):
        self.cube = Hypercube(n)
        self.n = n
        self.params = params if params is not None else MachineParams.ncube7()
        if faults is not None and faults.n != n:
            raise ValueError(f"fault set is for Q_{faults.n}, machine is Q_{n}")
        self.faults = faults if faults is not None else FaultSet(n)
        self.obs = obs if obs is not None else NULL_TRACER
        if self.obs.enabled:
            self.obs.name_process(PID_SIM, "simulated machine")
            self.obs.name_thread(TID_PHASES, "machine phases", pid=PID_SIM)
        self.blocks: dict[int, np.ndarray] = {}
        self.elapsed: float = 0.0
        self.phases: list[PhaseRecord] = []
        self._current: PhaseRecord | None = None
        self._node_time: dict[int, float] = {}
        self._hop_cache: dict[int, Sequence[int]] = {}
        self._size = 1 << n
        self._detour_needed = self.faults.may_detour
        #: Optional hook called as ``on_phase_end(machine, record)`` after
        #: every phase closes — used by walkthrough/teaching tools to
        #: snapshot block states without touching the algorithms.
        self.on_phase_end = None

    # -- key storage -----------------------------------------------------

    def set_block(self, addr: int, values: np.ndarray) -> None:
        """Install node ``addr``'s key block (copied)."""
        validate_address(addr, self.n)
        if self.faults.is_faulty(addr):
            raise ValueError(f"cannot store keys on faulty processor {addr}")
        arr = np.array(values, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"blocks must be 1-D, got shape {arr.shape}")
        self.blocks[addr] = arr

    def get_block(self, addr: int) -> np.ndarray:
        """Node ``addr``'s current block (a shared empty array if none)."""
        if type(addr) is not int or not 0 <= addr < self._size:
            validate_address(addr, self.n)
        return self.blocks.get(addr, _EMPTY_BLOCK)

    def clear_blocks(self) -> None:
        """Drop all stored blocks (clocks and phase history are kept)."""
        self.blocks.clear()

    def total_keys(self) -> int:
        """Total number of keys currently stored across all nodes."""
        return sum(b.size for b in self.blocks.values())

    # -- hop metric --------------------------------------------------------

    def hops(self, a: int, b: int) -> int:
        """Routing hops between ``a`` and ``b`` under the fault model.

        Partial faults with no link faults (or no faults at all): e-cube
        distance ``HD(a, b)``.  Total faults and/or link faults: shortest
        surviving path (faulty nodes are impassable only under the total
        model; faulty links always are).  Endpoints must be fault-free.
        """
        if type(a) is not int or not 0 <= a < self._size:
            validate_address(a, self.n)
        if type(b) is not int or not 0 <= b < self._size:
            validate_address(b, self.n)
        if a == b:
            return 0
        if not self._detour_needed:
            return hamming_distance(a, b)
        if self.faults.is_faulty(a) or self.faults.is_faulty(b):
            raise ValueError(f"cannot route between faulty endpoints {a}, {b}")
        dist = self._hop_cache.get(a)
        if dist is None:
            dist = self._surviving_distances(a)
            self._hop_cache[a] = dist
        d = dist[b]
        if d < 0:
            raise ValueError(f"node {b} unreachable from {a} under the fault model")
        return d

    def _surviving_distances(self, src: int) -> Sequence[int]:
        """BFS distance table from ``src`` honoring node *and* link faults.

        Served from the process-wide plan cache keyed on the (immutable)
        fault set: scenario supervisors build many short-lived machines
        over the same fault view, and the tables are identical across
        them.  The table is an ``array('h')`` indexed by address with
        ``-1`` for unreachable — compact enough (2 bytes/node) that the
        cache can retain every table of a large campaign without bloating
        the heap — and is shared: treated as read-only by :meth:`hops`.
        """
        return cached_route_table(self.faults, src, lambda: self._bfs_distances(src))

    def _bfs_distances(self, src: int) -> Sequence[int]:
        from collections import deque

        blocked_nodes = (
            set(self.faults.processors) if self.faults.kind is FaultKind.TOTAL else set()
        )
        # Without link faults, blocked_nodes alone decides reachability
        # (total-fault endpoints never enter the frontier), so the per-edge
        # link query can be skipped wholesale.
        check_links = bool(self.faults.links)
        dist = [-1] * self._size
        dist[src] = 0
        queue: deque[int] = deque([src])
        while queue:
            cur = queue.popleft()
            base = dist[cur] + 1
            for d in range(self.n):
                nxt = cur ^ (1 << d)
                if dist[nxt] >= 0 or nxt in blocked_nodes:
                    continue
                if check_links and self.faults.is_link_faulty(cur, nxt):
                    continue
                dist[nxt] = base
                queue.append(nxt)
        return array("h", dist)

    # -- phase accounting --------------------------------------------------

    @contextmanager
    def phase(self, label: str):
        """Open a barrier-separated parallel phase.

        All charges inside the ``with`` block belong to this phase; on exit
        the machine clock advances by the maximum per-node charge.
        """
        if self._current is not None:
            raise RuntimeError(f"phase {self._current.label!r} is already open")
        self._current = PhaseRecord(label=label)
        self._node_time = {}
        started_at = self.elapsed
        try:
            yield self._current
        finally:
            rec = self._current
            rec.duration = max(self._node_time.values(), default=0.0)
            self.elapsed += rec.duration
            self.phases.append(rec)
            self._current = None
            self._node_time = {}
            if self.obs.enabled:
                self._record_phases((rec,), (started_at,))
            if self.on_phase_end is not None:
                self.on_phase_end(self, rec)

    def _record_phases(self, records, starts) -> None:
        """Report closed phases, started at ``starts``, to the attached
        tracer: one span and one ``phase.keys_moved`` sample each, and each
        ``phase.*`` counter once for all of them."""
        m = self.obs.metrics
        for rec, started_at in zip(records, starts):
            self.obs.complete(
                rec.label,
                ts=started_at,
                dur=rec.duration,
                cat="phase",
                pid=PID_SIM,
                tid=TID_PHASES,
                args={
                    "comparisons": rec.comparisons,
                    "elements_sent": rec.elements_sent,
                    "element_hops": rec.element_hops,
                    "messages": rec.messages,
                },
            )
            m.observe("phase.keys_moved", rec.elements_sent)
        m.inc("phase.count", len(records))
        m.inc("phase.messages", sum(rec.messages for rec in records))
        m.inc("phase.elements", sum(rec.elements_sent for rec in records))
        m.inc("phase.element_hops", sum(rec.element_hops for rec in records))
        m.inc("phase.comparisons", sum(rec.comparisons for rec in records))

    def _require_phase(self) -> PhaseRecord:
        if self._current is None:
            raise RuntimeError("charges require an open phase (use machine.phase(...))")
        return self._current

    def charge_compute(self, addr: int, comparisons: int) -> None:
        """Charge ``comparisons`` key comparisons to node ``addr``."""
        rec = self._current
        if rec is None:
            rec = self._require_phase()
        if type(addr) is not int or not 0 <= addr < self._size:
            validate_address(addr, self.n)
        if comparisons < 0:
            raise ValueError("comparisons must be non-negative")
        rec.comparisons += comparisons
        node_time = self._node_time
        node_time[addr] = node_time.get(addr, 0.0) + self.params.compare_time(comparisons)

    def charge_transfer(self, src: int, dst: int, elements: int, hops: int | None = None) -> None:
        """Charge a transfer of ``elements`` keys from ``src`` to ``dst``.

        Both endpoints are busy for the full transfer (the paper's
        ``t_s/r`` covers "sending or receiving").  ``hops`` defaults to
        :meth:`hops`.
        """
        rec = self._current
        if rec is None:
            rec = self._require_phase()
        if type(src) is not int or not 0 <= src < self._size:
            validate_address(src, self.n)
        if type(dst) is not int or not 0 <= dst < self._size:
            validate_address(dst, self.n)
        if elements < 0:
            raise ValueError("elements must be non-negative")
        if elements == 0:
            return
        if hops is None:
            hops = self.hops(src, dst)
        t = self.params.transfer_time(elements, hops)
        rec.elements_sent += elements
        rec.element_hops += elements * hops
        rec.messages += 1
        node_time = self._node_time
        node_time[src] = node_time.get(src, 0.0) + t
        node_time[dst] = node_time.get(dst, 0.0) + t

    def charge_swap(self, a: int, b: int, elements: int, hops: int | None = None) -> None:
        """Charge a *simultaneous* bidirectional exchange of ``elements``.

        NCUBE-era links are full-duplex DMA channels: when two processors
        swap equal-size messages, both directions overlap in time, so each
        endpoint is busy for one transfer duration — this is exactly how
        the paper's cost model counts each exchange leg (one
        ``ceil(M/2N') t_s/r`` term, not two).  Counters record the traffic
        of both directions.
        """
        rec = self._current
        if rec is None:
            rec = self._require_phase()
        if type(a) is not int or not 0 <= a < self._size:
            validate_address(a, self.n)
        if type(b) is not int or not 0 <= b < self._size:
            validate_address(b, self.n)
        if elements < 0:
            raise ValueError("elements must be non-negative")
        if elements == 0:
            return
        if hops is None:
            hops = self.hops(a, b)
        t = self.params.transfer_time(elements, hops)
        rec.elements_sent += 2 * elements
        rec.element_hops += 2 * elements * hops
        rec.messages += 2
        node_time = self._node_time
        node_time[a] = node_time.get(a, 0.0) + t
        node_time[b] = node_time.get(b, 0.0) + t

    # -- summaries ---------------------------------------------------------

    def total_comparisons(self) -> int:
        """Comparisons across the whole run."""
        return sum(p.comparisons for p in self.phases)

    def total_elements_sent(self) -> int:
        """Element transfers across the whole run (unweighted by hops)."""
        return sum(p.elements_sent for p in self.phases)

    def total_element_hops(self) -> int:
        """Element*hop products across the whole run (link occupancy)."""
        return sum(p.element_hops for p in self.phases)

    def cut_at(self, local_time: float) -> tuple[int, float]:
        """Barrier-level detection cut for a fault arriving at ``local_time``.

        The machine is barrier-synchronous, so a fault arriving *during*
        phase ``k`` is first observable at phase ``k``'s closing barrier.
        Returns ``(k, barrier_time)`` — the index of the phase the arrival
        lands in and the cumulative elapsed time through its barrier (the
        work a supervisor must write off as wasted).  An arrival at or
        before time 0 cuts before the first phase (``(-1, 0.0)``); an
        arrival at or past the final barrier cuts after the last phase
        (``(len(phases) - 1, elapsed)`` — the run already completed).
        """
        if local_time <= 0.0:
            return -1, 0.0
        cum = 0.0
        for idx, rec in enumerate(self.phases):
            cum += rec.duration
            if local_time <= cum:
                return idx, cum
        return len(self.phases) - 1, cum

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"PhaseMachine(n={self.n}, elapsed={self.elapsed:.1f}us, "
            f"phases={len(self.phases)}, faults={self.faults.r})"
        )
