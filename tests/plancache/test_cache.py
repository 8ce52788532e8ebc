"""Unit tests for the :class:`repro.plancache.PlanCache` mechanics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ftsort import fault_tolerant_sort
from repro.obs.metrics import MetricsRegistry
from repro.plancache import PLAN_CACHE, PlanCache
from repro.plancache.cache import _env_enabled
from tests.conftest import KERNEL_ROUTES


class TestMemo:
    def test_miss_then_hit(self):
        cache = PlanCache()
        calls = []
        assert cache.memo("plan", ("k",), lambda: calls.append(1) or 41) == 41
        assert cache.memo("plan", ("k",), lambda: calls.append(1) or 42) == 41
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["hits"]["plan"] == 1
        assert stats["misses"]["plan"] == 1

    def test_disabled_is_transparent_and_uncounted(self):
        cache = PlanCache(enabled=False)
        assert cache.memo("plan", ("k",), lambda: 1) == 1
        assert cache.memo("plan", ("k",), lambda: 2) == 2  # recomputed
        stats = cache.stats()
        assert stats["total_hits"] == 0 and stats["total_misses"] == 0
        assert cache.size == 0

    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        cache.memo("plan", (1,), lambda: "a")
        cache.memo("plan", (2,), lambda: "b")
        cache.memo("plan", (1,), lambda: "x")  # refresh 1; 2 is now LRU
        cache.memo("plan", (3,), lambda: "c")  # evicts 2
        assert cache.stats()["evictions"] == 1
        assert cache.memo("plan", (1,), lambda: "y") == "a"
        assert cache.memo("plan", (2,), lambda: "b2") == "b2"  # was evicted

    def test_configure_shrink_evicts(self):
        cache = PlanCache(capacity=8)
        for i in range(8):
            cache.memo("plan", (i,), lambda: i)
        cache.configure(capacity=3)
        assert cache.size == 3

    def test_clear(self):
        cache = PlanCache()
        cache.memo("plan", (1,), lambda: 1)
        cache.clear(reset_counters=True)
        assert cache.size == 0
        assert cache.stats()["total_misses"] == 0


class TestMetricsExport:
    def test_export_and_baseline_delta(self):
        cache = PlanCache()
        cache.memo("routes", (1,), lambda: 1)
        baseline = cache.stats()
        cache.memo("routes", (1,), lambda: 1)  # 1 hit after baseline
        cache.memo("routes", (2,), lambda: 2)  # 1 miss after baseline

        registry = MetricsRegistry()
        cache.export_metrics(registry, baseline=baseline)
        snapshot = registry.to_dict()
        counters = snapshot["counters"]
        assert counters["plancache.hits"] == 1
        assert counters["plancache.misses"] == 1
        assert counters["plancache.hits.routes"] == 1
        assert snapshot["gauges"]["plancache.entries"] == 2

    def test_summary_mentions_every_section(self):
        cache = PlanCache()
        text = cache.summary()
        for section in ("plan", "canon", "sched", "routes", "nominal"):
            assert section in text


class TestEnvGate:
    def test_env_enabled_parsing(self, monkeypatch):
        for value, expected in [("off", False), ("0", False), ("no", False),
                                ("on", True), ("1", True), (None, True)]:
            if value is None:
                monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
            else:
                monkeypatch.setenv("REPRO_PLAN_CACHE", value)
            assert _env_enabled() is expected


class TestCompiledTierFootprint:
    """Phase-engine sorts build their programs from the plan: the cache
    gains one ``compiled`` entry per new plan and no ``sched`` entry, on
    every route."""

    @staticmethod
    def _entries(section: str) -> int:
        return sum(1 for sec, _ in list(PLAN_CACHE._store) if sec == section)

    @pytest.mark.parametrize("plans,skeletons", [
        ([(3, []), (4, [])], 2),
        ([(4, [5]), (4, [6])], 1),
        ([(4, [3, 9, 14]), (5, [3, 5, 16, 24])], 2),
    ], ids=["r0", "r1", "r>=2"])
    def test_one_compiled_entry_per_new_plan_and_no_schedule(self, monkeypatch, plans,
                                                             skeletons):
        monkeypatch.setattr(PLAN_CACHE, "enabled", True)
        PLAN_CACHE.clear()
        sched_misses = PLAN_CACHE.stats()["misses"]["sched"]
        keys = np.random.default_rng(4).random(100)
        for count, (n, faults) in enumerate(plans * 2):
            fault_tolerant_sort(keys, n, faults, kernels="compiled")
            assert self._entries("compiled") == min(count + 1, len(plans))
        assert PLAN_CACHE.stats()["misses"]["sched"] == sched_misses
        assert self._entries("sched") == 0
        # One skeleton per (n, m) or (n, has_fault): both r = 1 plans share one.
        assert self._entries("skeleton") == skeletons

    @pytest.mark.parametrize("route", ["loop", "interpreted"])
    @pytest.mark.parametrize("n,faults", [(4, []), (4, [5]), (5, [3, 5, 16, 24])],
                             ids=["r0", "r1", "r>=2"])
    def test_interpreter_route_caches_the_executor_program(self, monkeypatch, route,
                                                           n, faults):
        """The interpreter walks the program the executor runs: its sort
        adds the one ``compiled`` entry a later executor sort hits."""
        monkeypatch.setattr(PLAN_CACHE, "enabled", True)
        PLAN_CACHE.clear()
        sched_misses = PLAN_CACHE.stats()["misses"]["sched"]
        keys = np.random.default_rng(4).random(100)
        fault_tolerant_sort(keys, n, faults, **KERNEL_ROUTES[route])
        assert self._entries("compiled") == 1
        hits = PLAN_CACHE.stats()["hits"]["compiled"]
        fault_tolerant_sort(keys, n, faults, kernels="compiled")
        assert self._entries("compiled") == 1
        assert PLAN_CACHE.stats()["hits"]["compiled"] == hits + 1
        assert PLAN_CACHE.stats()["misses"]["sched"] == sched_misses
        assert self._entries("sched") == 0

    def test_full_sort_program_has_its_own_entry(self, monkeypatch):
        monkeypatch.setattr(PLAN_CACHE, "enabled", True)
        PLAN_CACHE.clear()
        hits = PLAN_CACHE.stats()["hits"]["compiled"]
        skeleton_misses = PLAN_CACHE.stats()["misses"]["skeleton"]
        keys = np.random.default_rng(4).random(100)
        for step8 in ("two-merge", "full-sort", "two-merge", "full-sort"):
            fault_tolerant_sort(keys, 5, [3, 5, 16, 24], step8=step8)
        assert self._entries("compiled") == 2
        assert PLAN_CACHE.stats()["hits"]["compiled"] == hits + 2
        assert self._entries("sched") == 0

        # A second plan with the same (n, m), XOR-moved: a program of its
        # own in each mode, bound to the same two skeletons, and equal to
        # the program a cache-off sort builds from scratch.
        twin = [a ^ 1 for a in (3, 5, 16, 24)]
        warm = {step8: fault_tolerant_sort(keys, 5, twin, step8=step8)
                for step8 in ("two-merge", "full-sort")}
        assert self._entries("compiled") == 4
        assert self._entries("skeleton") == 2
        assert PLAN_CACHE.stats()["misses"]["skeleton"] == skeleton_misses + 2
        monkeypatch.setattr(PLAN_CACHE, "enabled", False)
        for step8, on in warm.items():
            off = fault_tolerant_sort(keys, 5, twin, step8=step8)
            np.testing.assert_array_equal(off.sorted_keys, on.sorted_keys)
            assert (off.elapsed, off.output_order) == (on.elapsed, on.output_order)
            assert [vars(rec) for rec in off.machine.phases] == [
                vars(rec) for rec in on.machine.phases]
