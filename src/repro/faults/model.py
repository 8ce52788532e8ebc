"""Permanent-fault model for hypercube multicomputers.

Terminology follows the paper (Section 4) and Hastad et al.:

* **total** processor fault — the processor and *all incident links* are
  destroyed; messages cannot pass through the node, so routing must detour.
* **partial** processor fault — only the computational portion dies; the
  communication portion and incident links keep forwarding messages.  This
  is what the authors' NCUBE/7 VERTEX experiments actually simulate.

Link faults are modeled independently (always total: a dead link carries
nothing).  :class:`FaultSet` is immutable; algorithms never mutate the fault
configuration mid-run because faults are *permanent*.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.cube.address import validate_address, validate_dimension
from repro.cube.topology import Hypercube, shortest_paths_avoiding

__all__ = ["FaultKind", "FaultSet"]


class FaultKind(enum.Enum):
    """Severity of a processor fault (Hastad's taxonomy, paper Section 4)."""

    TOTAL = "total"
    PARTIAL = "partial"


class FaultSet:
    """An immutable set of faulty processors and links in ``Q_n``.

    Args:
        n: hypercube dimension.
        processors: faulty processor addresses (crash / fail-stop: the
            computational portion is dead and stays silent).
        kind: whether processor faults are total or partial (uniform for the
            whole set, as in the paper's two simulation modes).
        links: faulty links, each given as an ``(a, b)`` pair of neighbor
            addresses; stored canonically as ``(min_endpoint, dimension)``.
        byzantine: additionally-faulty processors whose behaviour is
            *arbitrary* rather than silent (the hybrid-diagnosis model of
            :mod:`repro.faults.diagnosis`).  Disjoint from ``processors``
            by construction — a processor cannot be both crashed and
            byzantine, and listing it as both is rejected.  The
            :attr:`processors` view covers *all* faulty processors, so
            planners and routers treat byzantine nodes as faulty too.

    Duplicate entries are rejected everywhere: a processor listed twice
    within a fault kind, across the two kinds, or a link named twice.
    """

    def __init__(
        self,
        n: int,
        processors: Iterable[int] = (),
        kind: FaultKind = FaultKind.TOTAL,
        links: Iterable[tuple[int, int]] = (),
        byzantine: Iterable[int] = (),
    ):
        self.n = validate_dimension(n)
        self.cube = Hypercube(n)
        crash = [validate_address(p, n) for p in processors]
        byz = [validate_address(p, n) for p in byzantine]
        for label, seq in (("faulty", crash), ("byzantine", byz)):
            seen: set[int] = set()
            for addr in seq:
                if addr in seen:
                    raise ValueError(
                        f"duplicate {label} processor: {addr} listed twice"
                    )
                seen.add(addr)
        contradictory = sorted(set(crash) & set(byz))
        if contradictory:
            raise ValueError(
                f"contradictory fault kinds: processor(s) {contradictory} "
                f"listed both faulty (crash) and byzantine"
            )
        self._byzantine = tuple(sorted(byz))
        self._byz_set = frozenset(byz)
        procs = sorted(set(crash) | set(byz))
        self._processors = tuple(procs)
        self._proc_set = frozenset(procs)
        if not isinstance(kind, FaultKind):
            raise TypeError(f"kind must be a FaultKind, got {kind!r}")
        self.kind = kind
        canon: set[tuple[int, int]] = set()
        for a, b in links:
            lid = self.cube.link_id(a, b)
            if lid in canon:
                raise ValueError(
                    f"duplicate link fault: ({a}, {b}) names link {lid} twice"
                )
            canon.add(lid)
        self._links = tuple(sorted(canon))
        self._link_set = frozenset(canon)

    # -- processor queries ----------------------------------------------

    @property
    def processors(self) -> tuple[int, ...]:
        """Faulty processor addresses, ascending."""
        return self._processors

    @property
    def byzantine(self) -> tuple[int, ...]:
        """The byzantine subset of :attr:`processors`, ascending."""
        return self._byzantine

    @property
    def crash(self) -> tuple[int, ...]:
        """The silent (fail-stop) subset of :attr:`processors`, ascending."""
        return tuple(p for p in self._processors if p not in self._byz_set)

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        """Faulty links as canonical ``(node, dim)`` ids, sorted."""
        return self._links

    @property
    def r(self) -> int:
        """Number of faulty processors (the paper's ``r``)."""
        return len(self._processors)

    @property
    def may_detour(self) -> bool:
        """Whether a route may have to leave a shortest e-cube path.

        True with any link fault, or with processor faults under the total
        model (a totally faulty node forwards nothing).  Otherwise every
        route is e-cube and spans the Hamming distance.
        """
        return bool(self._links) or (self.r > 0 and self.kind is FaultKind.TOTAL)

    def is_faulty(self, addr: int) -> bool:
        """Whether processor ``addr`` is faulty (crash or byzantine)."""
        return addr in self._proc_set

    def is_byzantine(self, addr: int) -> bool:
        """Whether processor ``addr`` is faulty with arbitrary behaviour."""
        return addr in self._byz_set

    def is_link_faulty(self, a: int, b: int) -> bool:
        """Whether the link between neighbors ``a`` and ``b`` is unusable.

        A link is unusable if it was injected as a link fault, or if either
        endpoint is a *total* processor fault (total faults destroy incident
        links).  Partial processor faults leave links usable.

        ``a`` and ``b`` must be neighbors; with no link faults under the
        partial model every link is usable and the query short-circuits
        without inspecting the pair (this sits on the route-BFS hot path).
        """
        link_set = self._link_set
        if not link_set and self.kind is FaultKind.PARTIAL:
            return False
        if self.cube.link_id(a, b) in link_set:
            return True
        return self.kind is FaultKind.TOTAL and (
            a in self._proc_set or b in self._proc_set
        )

    def can_route_through(self, addr: int) -> bool:
        """Whether messages may transit node ``addr``.

        Partial faults forward messages (the VERTEX behaviour the paper
        describes); total faults do not.
        """
        if not self.is_faulty(addr):
            return True
        return self.kind is FaultKind.PARTIAL

    def fault_free_processors(self) -> list[int]:
        """All non-faulty processor addresses, ascending."""
        return [p for p in self.cube.nodes() if p not in self._proc_set]

    # -- structural predicates -------------------------------------------

    def satisfies_paper_model(self) -> bool:
        """Check the paper's standing assumptions.

        Requires ``r <= n - 1`` *or* (the §2.2 closing remark) that no
        fault-free processor is surrounded entirely by faulty neighbors.
        """
        if self.r <= max(self.n - 1, 0):
            return True
        return not self.has_isolated_normal_processor()

    def has_isolated_normal_processor(self) -> bool:
        """Whether some fault-free processor has all ``n`` neighbors faulty."""
        for p in self.cube.nodes():
            if p in self._proc_set:
                continue
            if all(nb in self._proc_set for nb in self.cube.neighbors(p)):
                return True
        return False

    def is_connected(self) -> bool:
        """Whether the fault-free processors form one connected component.

        For *total* faults this decides whether every pair of working nodes
        can still exchange messages at all.  ``Q_n`` is ``n``-connected, so
        ``r <= n - 1`` guarantees connectivity.
        """
        normal = self.fault_free_processors()
        if not normal:
            return True
        forbidden = self._proc_set if self.kind is FaultKind.TOTAL else frozenset()
        src = normal[0]
        if self.kind is FaultKind.PARTIAL:
            # Partial faults forward traffic, so connectivity over normal
            # nodes is trivially that of Q_n minus nothing.
            return True
        reach = shortest_paths_avoiding(self.n, src, forbidden)
        return all(p in reach for p in normal)

    # -- dunder ------------------------------------------------------------

    def __contains__(self, addr: int) -> bool:
        return addr in self._proc_set

    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self):
        return iter(self._processors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSet):
            return NotImplemented
        return (
            self.n == other.n
            and self._processors == other._processors
            and self.kind == other.kind
            and self._links == other._links
            and self._byzantine == other._byzantine
        )

    def __hash__(self) -> int:
        return hash(
            (self.n, self._processors, self.kind, self._links, self._byzantine)
        )

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        byz = f", byzantine={list(self._byzantine)}" if self._byzantine else ""
        return (
            f"FaultSet(n={self.n}, processors={list(self.crash)}, "
            f"kind={self.kind.value!r}, links={list(self._links)}{byz})"
        )
