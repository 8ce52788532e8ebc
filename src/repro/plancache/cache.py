"""The memoizing planning layer: exact-keyed plan cache + route/nominal memos.

One process-wide :class:`PlanCache` (:data:`PLAN_CACHE`) serves every
planning-pipeline consumer:

* ``plan`` — :func:`repro.core.partition.find_min_cuts` +
  :func:`repro.core.selection.select_cut_sequence`, keyed on the exact
  ``(n, fault addresses)`` (see :func:`plan_with_cache`);
* ``canon`` — never written; its counters always read 0, for the reader
  named at ``_SECTIONS``;
* ``sched`` — built :class:`~repro.core.schedule.SortSchedule` objects
  (frozen, safely shared) keyed on the resolved plan, for the SPMD engine
  and the host session (the compiled tier never builds one);
* ``routes`` — fault-aware BFS distance tables of the phase machine's hop
  metric, keyed ``(n, fault set, source)``.  Scenario supervisors build
  many short-lived machines over the same fault view; sharing the tables
  across machines is where most of the campaign's planning time goes;
* ``nominal`` — the chaos campaign's nominal run duration per scenario
  statics (the denominator every arrival fraction is scaled by);
* ``compiled`` — :class:`~repro.core.schedule.CompiledSchedule`
  programs for the ``--kernels compiled`` tier, built straight from the
  plan and keyed like the plan's schedule plus the fault set only when
  the hop metric is fault-dependent (detour routing) — fault sets that
  resolve to the same plan share one program.

Everything cached is either immutable (frozen dataclasses, tuples, floats)
or treated as read-only by every consumer (the distance dicts).  Cache-on
and cache-off produce byte-identical plans, schedules and sorted outputs —
property-tested in ``tests/plancache/``.

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

__all__ = [
    "PLAN_CACHE",
    "PlanCache",
    "cached_compiled_program",
    "cached_ft_schedule",
    "cached_plain_schedule",
    "cached_route_table",
    "plan_with_cache",
]

# ``canon`` is never written; benchmarks/e2e/workloads.py still reads its misses.
_SECTIONS = ("plan", "canon", "sched", "routes", "nominal", "compiled")


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
        self.hits = {s: 0 for s in _SECTIONS}
        self.misses = {s: 0 for s in _SECTIONS}
        self.evictions = 0

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
            if reset_counters:
                self.hits = {s: 0 for s in _SECTIONS}
                self.misses = {s: 0 for s in _SECTIONS}
                self.evictions = 0

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
        }

    def summary(self) -> str:
        """Human-readable stats table (``repro chaos --plan-cache stats``)."""
        s = self.stats()
        lines = [
            f"plan cache: {'enabled' if s['enabled'] else 'disabled'}, "
            f"{s['entries']}/{s['capacity']} entries, "
            f"{s['evictions']} evictions"
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


# -- plan (partition + selection) ------------------------------------------


def plan_with_cache(n: int, faults):
    """Partition + Eq.-(1) selection, memoized on the exact fault set.

    The cached value is exactly ``find_min_cuts`` + ``select_cut_sequence``
    on the real fault addresses, so cache-on and cache-off return equal
    plans.  For ``r <= 1``, and with the cache disabled, it plans directly,
    uncounted.
    """
    from repro.core.partition import _fault_addresses, find_min_cuts
    from repro.core.selection import select_cut_sequence

    procs = _fault_addresses(n, faults)

    def plan():
        partition = find_min_cuts(n, procs)
        return partition, select_cut_sequence(partition)

    if len(procs) <= 1:
        return plan()
    return PLAN_CACHE.memo("plan", (n, procs), plan)


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
    """Memoized compiled program (:class:`~repro.core.schedule.CompiledSchedule`).

    ``kind``/``key`` name the plan (``"ft"`` with
    ``(n, cut_dims, dead_of_subcube)``, ``"plain"`` with ``(n, faulty)``).
    The program additionally bakes in per-pair hop counts, which depend on
    the fault set exactly when routes may detour
    (:attr:`~repro.faults.model.FaultSet.may_detour`); only then does the
    fault set join the key — partial-fault runs over the same plan share
    one program.  ``build`` makes the program on a miss.
    """
    full_key = (kind,) + tuple(key) + (faults if faults.may_detour else None,)
    return PLAN_CACHE.memo("compiled", full_key, build)


def cached_route_table(faults: FaultSet, src: int, compute):
    """Shared BFS distance table from ``src`` under ``faults``.

    ``compute`` runs the machine's own BFS on a miss.  The returned table
    (an address-indexed ``array('h')``, ``-1`` = unreachable) is shared
    across machines and MUST be treated as read-only.
    """
    return PLAN_CACHE.memo("routes", (faults.n, faults, src), compute)
