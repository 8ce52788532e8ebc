"""The memoizing planning layer: canonical plan cache + route/nominal memos.

One process-wide :class:`PlanCache` (:data:`PLAN_CACHE`) serves every
planning-pipeline consumer:

* ``plan`` — :func:`repro.core.partition.find_min_cuts` + the Eq.-(1)
  per-sequence costs.  Entries come in two flavors: exact-keyed resolved
  plans (the lazy cold path — a fault set whose orbit signature has never
  been seen is planned directly, with no canonicalization at all) and
  orbit-keyed canonical plans replayed through the inverse transform once
  a signature recurs (see :func:`plan_with_cache`);
* ``canon`` — exact fault-tuple -> canonical form, so one real fault set is
  canonicalized at most once — and, since canonicalization is lazy, only
  when its orbit signature has been sighted more than once;
* ``sched`` — built :class:`~repro.core.schedule.SortSchedule` objects
  (frozen, safely shared) keyed on the resolved plan;
* ``routes`` — fault-aware BFS distance tables of the phase machine's hop
  metric, keyed ``(n, fault set, source)``.  Scenario supervisors build
  many short-lived machines over the same fault view; sharing the tables
  across machines is where most of the campaign's planning time goes;
* ``nominal`` — the chaos campaign's nominal run duration per scenario
  statics (the denominator every arrival fraction is scaled by);
* ``compiled`` — lowered :class:`~repro.core.schedule.CompiledSchedule`
  programs for the ``--kernels compiled`` tier, keyed like their source
  schedules plus the fault set only when the hop metric is
  fault-dependent (detour routing) — multi-tenant jobs sharing an orbit
  share the compiled program too.

Everything cached is either immutable (frozen dataclasses, tuples, floats)
or treated as read-only by every consumer (the distance dicts).  Replay is
exact: cache-on and cache-off produce byte-identical plans, schedules and
sorted outputs — property-tested in ``tests/plancache/``.

Disable with ``PLAN_CACHE.configure(enabled=False)``, the
``REPRO_PLAN_CACHE=off`` environment variable, or ``repro chaos
--plan-cache off``.  Invalidation is never needed: keys are pure values
(fault sets, dimensions, machine parameters) and the mapped functions are
deterministic; restarting the process empties the cache.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from threading import Lock

# NOTE: nothing from repro.core (or anything that reaches the simulator /
# sorting layers) may be imported at module scope here: the phase machine
# imports this module for its route-table cache, and repro.core reaches the
# phase machine through the sorting layer.  Core imports stay inside the
# functions that need them.
from repro.cube.subcube import AddressSplit
from repro.plancache.canonical import CanonicalTransform, canonical_form, orbit_signature

__all__ = [
    "PLAN_CACHE",
    "PlanCache",
    "cached_compiled_program",
    "cached_ft_schedule",
    "cached_plain_schedule",
    "cached_route_table",
    "plan_with_cache",
]

_SECTIONS = ("plan", "canon", "sched", "routes", "nominal", "compiled")

#: Sentinel distinguishing "no entry" from a cached ``None``.
_MISS = object()


class PlanCache:
    """LRU-evicting memo store with per-section hit/miss/eviction counters.

    Args:
        capacity: maximum number of entries across all sections; the least
            recently used entry is evicted beyond it.
        enabled: start enabled/disabled (overridable per process via the
            ``REPRO_PLAN_CACHE`` environment variable: ``off``/``0`` or
            ``on``/``1``).
    """

    def __init__(self, capacity: int = 65_536, enabled: bool = True):
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self._store: OrderedDict = OrderedDict()
        self._lock = Lock()
        self._sigs: OrderedDict = OrderedDict()
        self.hits = {s: 0 for s in _SECTIONS}
        self.misses = {s: 0 for s in _SECTIONS}
        self.evictions = 0
        self.canonicalizations = 0

    # -- configuration -----------------------------------------------------

    def configure(self, enabled: bool | None = None, capacity: int | None = None) -> None:
        """Flip the cache on/off and/or resize it (shrinking evicts LRU)."""
        if enabled is not None:
            self.enabled = bool(enabled)
        if capacity is not None:
            if capacity < 1:
                raise ValueError(f"capacity must be >= 1, got {capacity}")
            self.capacity = int(capacity)
            with self._lock:
                while len(self._store) > self.capacity:
                    self._store.popitem(last=False)
                    self.evictions += 1

    def clear(self, reset_counters: bool = False) -> None:
        """Drop every entry (and optionally the counters)."""
        with self._lock:
            self._store.clear()
            self._sigs.clear()
            if reset_counters:
                self.hits = {s: 0 for s in _SECTIONS}
                self.misses = {s: 0 for s in _SECTIONS}
                self.evictions = 0
                self.canonicalizations = 0

    # -- core memo ---------------------------------------------------------

    def memo(self, section: str, key: tuple, compute):
        """Return the cached value for ``(section, key)`` or compute+store it.

        With the cache disabled this is a transparent call of ``compute``
        (no counters, no storage) — the contract every consumer relies on
        for cache-on/cache-off equivalence.
        """
        if not self.enabled:
            return compute()
        full = (section, key)
        with self._lock:
            entry = self._store.get(full)
            if entry is not None or full in self._store:
                self._store.move_to_end(full)
                self.hits[section] += 1
                return entry
            self.misses[section] += 1
        value = compute()
        with self._lock:
            self._store[full] = value
            self._store.move_to_end(full)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.evictions += 1
        return value

    def get(self, section: str, key: tuple):
        """Counted lookup: the cached value, or :data:`_MISS` when absent.

        The split get/put pair exists for consumers whose miss path is not
        a single ``compute()`` — :func:`plan_with_cache` decides *how* to
        plan (directly, or through canonicalization) only after it knows
        the exact entry is missing.  Disabled caches always miss, uncounted,
        mirroring :meth:`memo`'s transparency contract.
        """
        if not self.enabled:
            return _MISS
        full = (section, key)
        with self._lock:
            if full in self._store:
                self._store.move_to_end(full)
                self.hits[section] += 1
                return self._store[full]
            self.misses[section] += 1
            return _MISS

    def put(self, section: str, key: tuple, value) -> None:
        """Store ``value`` (no counters; pairs with a prior :meth:`get`)."""
        if not self.enabled:
            return
        with self._lock:
            self._store[(section, key)] = value
            self._store.move_to_end((section, key))
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.evictions += 1

    def note_signature(self, sig) -> int:
        """Record one sighting of an orbit signature; return the new count.

        Drives lazy canonicalization: the first sighting of a signature
        plans directly on the real fault set (no canonicalization), later
        sightings — a second fault set that *may* share the orbit — switch
        to the canonical path so the whole orbit converges on one cached
        plan.  The sighting table is LRU-bounded by the cache capacity.
        """
        with self._lock:
            count = self._sigs.get(sig, 0) + 1
            self._sigs[sig] = count
            self._sigs.move_to_end(sig)
            while len(self._sigs) > self.capacity:
                self._sigs.popitem(last=False)
            return count

    # -- reporting ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._store)

    def stats(self) -> dict:
        """JSON-ready snapshot of the counters and sizes."""
        return {
            "enabled": self.enabled,
            "entries": self.size,
            "capacity": self.capacity,
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "total_hits": sum(self.hits.values()),
            "total_misses": sum(self.misses.values()),
            "evictions": self.evictions,
            "canonicalizations": self.canonicalizations,
            "signatures": len(self._sigs),
        }

    def summary(self) -> str:
        """Human-readable stats table (``repro chaos --plan-cache stats``)."""
        s = self.stats()
        lines = [
            f"plan cache: {'enabled' if s['enabled'] else 'disabled'}, "
            f"{s['entries']}/{s['capacity']} entries, "
            f"{s['evictions']} evictions, "
            f"{s['canonicalizations']} canonicalizations"
        ]
        for section in _SECTIONS:
            h, m = s["hits"][section], s["misses"][section]
            rate = h / (h + m) if h + m else 0.0
            lines.append(f"  {section:<8} hits {h:>8}  misses {m:>8}  ({rate:.1%})")
        return "\n".join(lines)

    def export_metrics(self, registry, baseline: dict | None = None) -> None:
        """Fold the counters into a :class:`repro.obs` metrics registry.

        ``baseline`` (a previous :meth:`stats` snapshot) turns the export
        into a delta — what *this* run contributed — which is how the chaos
        campaign attributes cache traffic to individual scenarios.
        """
        s = self.stats()
        base = baseline or {}

        def delta(path: str, value):
            prev = base
            for part in path.split("."):
                prev = prev.get(part, {}) if isinstance(prev, dict) else 0
            return value - (prev if isinstance(prev, (int, float)) else 0)

        registry.inc("plancache.hits", delta("total_hits", s["total_hits"]))
        registry.inc("plancache.misses", delta("total_misses", s["total_misses"]))
        registry.inc("plancache.evictions", delta("evictions", s["evictions"]))
        registry.inc(
            "plancache.canonicalizations",
            delta("canonicalizations", s["canonicalizations"]),
        )
        for section in _SECTIONS:
            registry.inc(
                f"plancache.hits.{section}", delta(f"hits.{section}", s["hits"][section])
            )
            registry.inc(
                f"plancache.misses.{section}",
                delta(f"misses.{section}", s["misses"][section]),
            )
        registry.set_gauge("plancache.entries", s["entries"])


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_PLAN_CACHE", "on").strip().lower()
    return raw not in ("off", "0", "false", "no", "disabled")


#: The process-wide plan cache.  Worker processes each get their own
#: (module state is per process); the warm pool of
#: :mod:`repro.parallel` keeps them alive across tasks.
PLAN_CACHE = PlanCache(enabled=_env_enabled())


# -- canonical plan (partition + selection) --------------------------------


def _canonical(n: int, procs: tuple[int, ...]) -> tuple[tuple[int, ...], CanonicalTransform]:
    def compute():
        PLAN_CACHE.canonicalizations += 1
        return canonical_form(n, procs)

    return PLAN_CACHE.memo("canon", (n, procs), compute)


def plan_with_cache(n: int, faults):
    """Partition + Eq.-(1) selection, served from the canonical plan cache.

    Cache-off (or for the trivial ``r <= 1`` case) this is exactly
    ``find_min_cuts`` + ``select_cut_sequence``.  Cache-on, canonicalization
    is **lazy**: the first sighting of an orbit signature (a cheap
    ``Aut(Q_n)``-invariant pre-hash, :func:`~repro.plancache.canonical.
    orbit_signature`) plans directly on the real fault set and stores the
    resolved plan under an exact key — a cold, never-repeating workload
    therefore pays essentially nothing over cache-off.  Only when a
    signature recurs (a likely second orbit member, or a hash collision)
    does the set get canonicalized, after which the DFS and the
    per-sequence Eq.-(1) costs are computed once per automorphism orbit on
    the canonical fault set, then replayed:

    * Ψ maps sequence-by-sequence through the inverse dimension relabeling;
      re-sorting (within each sequence and across the set) restores the
      DFS's lexicographic order, so the replayed Ψ is *identical* to a cold
      run's (the map is a bijection between the two complete sets);
    * Eq.-(1) costs are automorphism-invariant (Hamming distances of local
      addresses are preserved; the objective is an unordered sum over cut
      dimensions), so each replayed sequence inherits its canonical twin's
      cost and the paper's first-minimum tie-break runs on the replayed
      (cold-order) list — same ``D_β``, same cost;
    * the dangling ``w`` and per-subcube dead addresses are recomputed
      directly on the real fault set (``O(r + 2**m)``, far below the DFS).
    """
    from repro.core.partition import PartitionResult, _fault_addresses, find_min_cuts
    from repro.core.selection import (
        SelectionResult,
        choose_dangling_w,
        extra_comm_cost,
        fault_of_subcube,
        select_cut_sequence,
    )

    procs = _fault_addresses(n, faults)
    if len(procs) <= 1 or not PLAN_CACHE.enabled:
        partition = find_min_cuts(n, procs)
        return partition, select_cut_sequence(partition)

    # Exact fast path: this precise fault set has been fully resolved
    # before (keys are namespaced by a leading tag so they can never
    # collide with orbit-keyed entries below).
    exact_key = ("exact", n, procs)
    resolved = PLAN_CACHE.get("plan", exact_key)
    if resolved is not _MISS:
        return resolved

    if PLAN_CACHE.note_signature(orbit_signature(n, procs)) <= 1:
        # Lazy canonicalization: first sighting of this orbit signature —
        # plan directly, exactly as cache-off would, and defer the
        # canonical-form search until the orbit proves it recurs.
        partition = find_min_cuts(n, procs)
        selection = select_cut_sequence(partition)
        PLAN_CACHE.put("plan", exact_key, (partition, selection))
        return partition, selection

    canon, tf = _canonical(n, procs)

    def plan_orbit():
        canon_part = find_min_cuts(n, canon)
        costs = tuple(
            extra_comm_cost(n, dims, canon) for dims in canon_part.cutting_set
        )
        return canon_part.mincut, canon_part.cutting_set, costs

    mincut, canon_psi, costs = PLAN_CACHE.memo(
        "plan", ("orbit", n, canon), plan_orbit)

    pairs = sorted(
        (tuple(sorted(tf.dim_to_real(d) for d in seq)), cost)
        for seq, cost in zip(canon_psi, costs)
    )
    psi = tuple(seq for seq, _ in pairs)
    partition = PartitionResult(n=n, faults=procs, mincut=mincut, cutting_set=psi)

    best_dims, best_cost = pairs[0]
    for dims, cost in pairs[1:]:
        if cost < best_cost:
            best_dims, best_cost = dims, cost

    split = AddressSplit(n, best_dims)
    dangling_w = choose_dangling_w(n, best_dims, procs)
    by_v = fault_of_subcube(n, best_dims, procs)
    dead = tuple(
        by_v[v] if v in by_v else split.combine(v, dangling_w)
        for v in range(1 << len(best_dims))
    )
    selection = SelectionResult(
        n=n,
        cut_dims=best_dims,
        cost=best_cost,
        faults=procs,
        dangling_w=dangling_w,
        dead_of_subcube=dead,
    )
    PLAN_CACHE.put("plan", exact_key, (partition, selection))
    return partition, selection


# -- schedules -------------------------------------------------------------


def cached_ft_schedule(selection: SelectionResult):
    """Memoized :func:`repro.core.schedule.build_ft_schedule`.

    The schedule depends only on ``(n, cut_dims, dead_of_subcube)``;
    :class:`~repro.core.schedule.SortSchedule` is frozen, so one instance is
    safely shared.  ``repro.core.schedule`` is imported lazily: it reaches
    :mod:`repro.simulator.phases` through the sorting layer, and the phase
    machine imports this module for its route table cache.
    """
    from repro.core.schedule import build_ft_schedule

    key = (selection.n, selection.cut_dims, selection.dead_of_subcube)
    return PLAN_CACHE.memo("sched", ("ft",) + key, lambda: build_ft_schedule(selection))


def cached_plain_schedule(n: int, faulty: int | None):
    """Memoized :func:`repro.core.schedule.build_plain_schedule`."""
    from repro.core.schedule import build_plain_schedule

    return PLAN_CACHE.memo(
        "sched", ("plain", n, faulty), lambda: build_plain_schedule(n, faulty)
    )


# -- fault-aware route tables ---------------------------------------------


def cached_compiled_program(kind: str, key: tuple, faults, build):
    """Memoized :func:`repro.core.schedule.lower_schedule` program.

    ``kind``/``key`` mirror the schedule-section key (``"ft"`` with
    ``(n, cut_dims, dead_of_subcube)``, ``"plain"`` with ``(n, faulty)``).
    The lowered program additionally bakes in per-pair hop counts, which
    depend on the fault set exactly when routes must detour (link faults,
    or total-model processor faults); only then does the fault set join the
    key — partial-fault runs over the same plan share one program.
    ``build`` computes the lowering on a miss.
    """
    from repro.faults.model import FaultKind

    detours = bool(faults.links) or (faults.r > 0 and faults.kind is FaultKind.TOTAL)
    full_key = (kind,) + tuple(key) + (faults if detours else None,)
    return PLAN_CACHE.memo("compiled", full_key, build)


def cached_route_table(faults: FaultSet, src: int, compute):
    """Shared BFS distance table from ``src`` under ``faults``.

    ``compute`` runs the machine's own BFS on a miss.  The returned table
    (an address-indexed ``array('h')``, ``-1`` = unreachable) is shared
    across machines and MUST be treated as read-only.
    """
    return PLAN_CACHE.memo("routes", (faults.n, faults, src), compute)
