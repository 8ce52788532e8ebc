"""Routing on a (possibly faulty) hypercube.

Three strategies, selected per fault model:

* ``ecube`` — classic dimension-order routing, what the NCUBE/7's VERTEX
  operating system does.  It ignores faults entirely; under the *partial*
  fault model that is fine (faulty processors still forward), which is
  exactly how the paper's NCUBE experiments behave.
* ``adaptive`` — a distributed-style fault-tolerant heuristic in the spirit
  of Chen & Shin: at each node prefer a *productive* usable dimension
  (lowest first), detour through a spare dimension when blocked, and carry
  a visited set so the walk is a depth-first search of the surviving graph
  — guaranteeing delivery whenever source and destination are connected
  (always true for ``r <= n - 1`` total faults, since ``Q_n`` is
  ``n``-connected).
* ``shortest`` — BFS ground truth on the surviving graph; used as the
  oracle the adaptive router is measured against, and as the "perfect
  global knowledge" router justified by the paper's off-line diagnosis
  assumption.
"""

from __future__ import annotations

from repro.cube.address import validate_address
from repro.cube.topology import Hypercube, ecube_path, shortest_paths_avoiding
from repro.faults.model import FaultKind, FaultSet

__all__ = ["RouteError", "Router"]


class RouteError(RuntimeError):
    """No route exists (or the strategy failed to find one)."""


class Router:
    """Path computation over a fault configuration.

    Args:
        faults: the fault configuration (its ``kind`` decides which nodes
            may forward traffic and which links are dead).
        strategy: ``"auto"`` (ecube for partial faults, adaptive for total),
            or one of ``"ecube"``, ``"adaptive"``, ``"shortest"``.
    """

    STRATEGIES = ("auto", "ecube", "adaptive", "shortest")

    def __init__(self, faults: FaultSet, strategy: str = "auto"):
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {self.STRATEGIES}")
        self.faults = faults
        self.cube: Hypercube = faults.cube
        self.n = faults.n
        if strategy == "auto":
            strategy = "adaptive" if faults.may_detour else "ecube"
        self.strategy = strategy

    # -- usability predicates ---------------------------------------------

    def _usable_step(self, cur: int, nxt: int, dst: int) -> bool:
        """Whether the hop ``cur -> nxt`` can carry traffic toward ``dst``.

        The link must be alive and ``nxt`` must either forward traffic or
        be the destination itself (a faulty destination cannot receive, but
        that is the endpoint's problem, checked at injection).
        """
        if self.faults.is_link_faulty(cur, nxt):
            return False
        if nxt == dst:
            return True
        return self.faults.can_route_through(nxt)

    # -- strategies ----------------------------------------------------------

    def route(self, src: int, dst: int) -> list[int]:
        """Full path from ``src`` to ``dst`` (both included).

        Raises :class:`RouteError` when the strategy cannot deliver — for
        ``ecube`` under total faults that simply reports the VERTEX
        router's inability (the motivation for rewriting the router, paper
        Section 4).
        """
        validate_address(src, self.n)
        validate_address(dst, self.n)
        if src == dst:
            return [src]
        if self.strategy == "ecube":
            return self._route_ecube(src, dst)
        if self.strategy == "shortest":
            return self._route_shortest(src, dst)
        return self._route_adaptive(src, dst)

    def hops(self, src: int, dst: int) -> int:
        """Number of links on :meth:`route`."""
        return len(self.route(src, dst)) - 1

    def _route_ecube(self, src: int, dst: int) -> list[int]:
        path = ecube_path(src, dst, self.n)
        for cur, nxt in zip(path, path[1:]):
            if not self._usable_step(cur, nxt, dst):
                raise RouteError(
                    f"e-cube route {src}->{dst} blocked at link {cur}->{nxt} "
                    f"(kind={self.faults.kind.value})"
                )
        return path

    def _route_shortest(self, src: int, dst: int) -> list[int]:
        forbidden = (
            set(self.faults.processors) - {src, dst}
            if self.faults.kind is FaultKind.TOTAL
            else set()
        )
        # Link faults force a per-step graph search even in partial mode.
        parent: dict[int, int] = {src: src}
        frontier = [src]
        while frontier and dst not in parent:
            nxt_frontier: list[int] = []
            for cur in frontier:
                for d in range(self.n):
                    nb = cur ^ (1 << d)
                    if nb in parent or nb in forbidden:
                        continue
                    if self.faults.is_link_faulty(cur, nb):
                        continue
                    if nb != dst and not self.faults.can_route_through(nb):
                        continue
                    parent[nb] = cur
                    nxt_frontier.append(nb)
            frontier = nxt_frontier
        if dst not in parent:
            raise RouteError(f"no surviving path {src}->{dst}")
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def _route_adaptive(self, src: int, dst: int) -> list[int]:
        """Greedy productive-first DFS with spare-dimension detours."""
        visited = {src}
        path = [src]
        # Explicit DFS with per-node iterator order: productive dims
        # ascending, then spare dims ascending — the greedy preference.
        choice_stack: list[list[int]] = [self._choices(src, dst)]
        while path:
            cur = path[-1]
            if cur == dst:
                return path
            choices = choice_stack[-1]
            advanced = False
            while choices:
                nxt = choices.pop(0)
                if nxt in visited:
                    continue
                visited.add(nxt)
                path.append(nxt)
                choice_stack.append(self._choices(nxt, dst))
                advanced = True
                break
            if not advanced:
                path.pop()  # backtrack (counts as traversing back in hops)
                choice_stack.pop()
        raise RouteError(f"adaptive routing exhausted: no surviving path {src}->{dst}")

    def _choices(self, cur: int, dst: int) -> list[int]:
        productive = []
        spare = []
        for d in range(self.n):
            nxt = cur ^ (1 << d)
            if not self._usable_step(cur, nxt, dst):
                continue
            if (cur ^ dst) >> d & 1:
                productive.append(nxt)
            else:
                spare.append(nxt)
        return productive + spare
