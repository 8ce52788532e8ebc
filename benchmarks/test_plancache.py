"""Plan-cache speedup benchmark — writes ``BENCH_plancache.json``.

Headline measurement: the seeded chaos campaign (phase engine, default
``compiled`` kernels) run three ways over the *same* scenario stream —

* **nocache** — :data:`repro.plancache.PLAN_CACHE` disabled, the
  pre-cache baseline;
* **cold** — cache enabled but empty; with lazy canonicalization the
  ``Aut(Q_n)`` search is deferred until an orbit signature recurs, so
  this run must stay within 5% of the no-cache baseline;
* **warm** — the identical campaign re-run against the populated cache.

The campaign is planning-heavy on purpose (``n in (7, 8)`` so the
per-machine BFS route tables and Ψ/selection work dominate) because that
is the workload the cache exists for.  The contract asserted here is the
one PERFORMANCE.md documents: caching is *invisible* in the results —
the JSONL reports of all three runs are byte-identical and every
simulated cost matches — and the warm run beats the no-cache baseline
(>= 3x at full scale, >= 1x always).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.chaos.campaign import run_campaign
from repro.core.ftsort import fault_tolerant_sort
from repro.plancache import PLAN_CACHE

SEED = 0  # the campaign default — acceptance runs are reproducible
N_CHOICES = (7, 8)
BACKENDS = ("phase",)
#: Route tables for 200 Q7/Q8 scenarios overflow the 64k default LRU and
#: would churn; the benchmark sizes the cache to hold its working set.
CAPACITY = 1 << 18
DEFAULT_CAPACITY = 65536


@pytest.fixture(autouse=True)
def _restore_cache():
    """Leave the process-global cache in its default state afterwards."""
    yield
    PLAN_CACHE.configure(enabled=True, capacity=DEFAULT_CAPACITY)
    PLAN_CACHE.clear(reset_counters=True)


class TestPlanCacheCampaignSpeedup:
    def test_nocache_vs_cold_vs_warm(self, fast_mode, bench_json, tmp_path):
        count = 24 if fast_mode else 200
        cfg = dict(count=count, seed=SEED, n_choices=N_CHOICES,
                   backends=BACKENDS, shrink_failures=False, jobs=1)

        PLAN_CACHE.configure(enabled=False)
        PLAN_CACHE.clear(reset_counters=True)
        t0 = time.perf_counter()
        off = run_campaign(out=str(tmp_path / "off.jsonl"), **cfg)
        t_off = time.perf_counter() - t0

        PLAN_CACHE.configure(enabled=True, capacity=CAPACITY)
        PLAN_CACHE.clear(reset_counters=True)
        t0 = time.perf_counter()
        cold = run_campaign(out=str(tmp_path / "cold.jsonl"), **cfg)
        t_cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = run_campaign(out=str(tmp_path / "warm.jsonl"), **cfg)
        t_warm = time.perf_counter() - t0

        # Caching must be invisible in the outcomes: same verdicts, same
        # simulated costs, byte for byte, across all three runs.
        off_bytes = (tmp_path / "off.jsonl").read_bytes()
        assert (tmp_path / "cold.jsonl").read_bytes() == off_bytes
        assert (tmp_path / "warm.jsonl").read_bytes() == off_bytes
        assert off.to_dict() == cold.to_dict() == warm.to_dict()
        assert off.all_passed

        stats = PLAN_CACHE.stats()
        warm_speedup = t_off / t_warm
        warm_vs_cold = t_cold / t_warm
        cold_vs_nocache = t_off / t_cold
        print(f"\nplan-cache campaign x{count} n={N_CHOICES}: "
              f"nocache {t_off:.2f}s, cold {t_cold:.2f}s, warm {t_warm:.2f}s "
              f"({warm_speedup:.2f}x warm vs nocache, "
              f"{cold_vs_nocache:.2f}x cold vs nocache)")
        bench_json("plancache", "chaos_campaign", {
            "scenarios": count, "seed": SEED, "n_choices": list(N_CHOICES),
            "backends": list(BACKENDS),
            "nocache_seconds": t_off, "cold_seconds": t_cold,
            "warm_seconds": t_warm,
            "warm_speedup": warm_speedup, "warm_vs_cold": warm_vs_cold,
            "cold_vs_nocache": cold_vs_nocache,
            "reports_identical": True,
            "cache": stats,
        })
        assert warm_speedup >= 1.0, (
            f"warm cache slower than no cache ({warm_speedup:.2f}x)")
        if not fast_mode:
            assert warm_speedup >= 3.0, (
                f"expected >=3x warm-vs-nocache at {count} scenarios, "
                f"got {warm_speedup:.2f}x")
            # Lazy canonicalization keeps the cold (first-sighting) run
            # within noise of cache-off: the Aut(Q_n) search is deferred
            # until an orbit signature recurs, so one-shot workloads pay
            # only the signature hash and a few dict probes.
            assert cold_vs_nocache >= 0.95, (
                f"cold cache run more than 5% slower than cache-off "
                f"({cold_vs_nocache:.3f}x) — lazy canonicalization regressed")


class TestCacheTransparency:
    def test_sorted_bytes_and_costs_identical(self, bench_json):
        """Cache off / cold / warm produce identical sorts on both kernels."""
        keys = np.random.default_rng(SEED).random(2048)
        cases = [(4, [3, 9, 14]), (5, [3, 5, 16, 24])]
        for kernels in ("compiled", "loop"):
            for n, faults in cases:
                PLAN_CACHE.configure(enabled=False)
                PLAN_CACHE.clear(reset_counters=True)
                off = fault_tolerant_sort(keys, n, faults, kernels=kernels)
                PLAN_CACHE.configure(enabled=True, capacity=DEFAULT_CAPACITY)
                PLAN_CACHE.clear(reset_counters=True)
                cold = fault_tolerant_sort(keys, n, faults, kernels=kernels)
                warm = fault_tolerant_sort(keys, n, faults, kernels=kernels)
                for run in (cold, warm):
                    assert run.sorted_keys.tobytes() == off.sorted_keys.tobytes()
                    assert run.elapsed == off.elapsed
                    assert run.output_order == off.output_order
        bench_json("plancache", "transparency", {
            "kernels": ["compiled", "loop"],
            "cases": [{"n": n, "faults": faults} for n, faults in cases],
            "identical": True,
        })


def test_record_environment(bench_json, fast_mode):
    bench_json("plancache", "cpu_count", os.cpu_count() or 1)
    bench_json("plancache", "fast_mode", fast_mode)
    bench_json("plancache", "seed", SEED)
