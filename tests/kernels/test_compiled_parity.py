"""Property tests: the compiled schedule tier is indistinguishable.

The ``compiled`` backend lowers a :class:`~repro.core.schedule.SortSchedule`
to flat index arrays and executes every substage as a handful of whole-key-
matrix numpy operations — but its contract is the same as every other
backend's: *execution strategy only*.  Sorted outputs are byte-identical,
the simulated clock is bit-identical, and every per-phase counter (the
comparison/traffic accounting the paper's cost model is built on) matches
the per-processor ``loop`` interpreter exactly.  Hypothesis drives all
three backends over dimensions, key counts (including block skew from
padding), fault plans (fault-free, single-fault, and multi-fault plans with
mirror substages), and exact/worst-case local counting; further tests pin
obs counter parity, plan-cache warm replay, and the honest-accounting
identity tying actual traffic to the schedule's closed-form worst case.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ftsort import fault_tolerant_sort, plan_partition
from repro.core.schedule import build_ft_schedule
from repro.obs.spans import Tracer
from repro.plancache.cache import PLAN_CACHE
from repro.simulator.params import MachineParams

BACKENDS = ("loop", "numpy", "compiled")
PAPER_FAULTS = [3, 5, 16, 24]


def _record_tuple(rec):
    return (rec.label, rec.duration, rec.comparisons, rec.elements_sent,
            rec.element_hops, rec.messages)


def _assert_identical(a, b):
    """Full result parity: output bytes, clock, phases, final placement."""
    np.testing.assert_array_equal(a.sorted_keys, b.sorted_keys)
    assert a.sorted_keys.tobytes() == b.sorted_keys.tobytes()
    assert a.elapsed == b.elapsed  # bit-exact, not approx
    assert a.output_order == b.output_order
    assert a.block_size == b.block_size
    assert len(a.machine.phases) == len(b.machine.phases)
    for ra, rb in zip(a.machine.phases, b.machine.phases):
        assert _record_tuple(ra) == _record_tuple(rb)
    for addr in a.output_order:
        np.testing.assert_array_equal(
            a.machine.get_block(addr), b.machine.get_block(addr)
        )


def _run_all(keys, n, faults, exact=False, params=None):
    return {
        name: fault_tolerant_sort(keys, n, faults, exact_counts=exact,
                                  params=params, kernels=name)
        for name in BACKENDS
    }


class TestCompiledParity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=5),
        keys=st.integers(min_value=0, max_value=200),
        exact=st.booleans(),
    )
    def test_three_way_parity(self, seed, n, keys, exact):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(0, n))
        faults = sorted(rng.choice(1 << n, size=r, replace=False).tolist())
        key_arr = rng.integers(0, 10**6, size=keys).astype(float)
        results = _run_all(key_arr, n, faults, exact=exact)
        np.testing.assert_array_equal(
            results["compiled"].sorted_keys, np.sort(key_arr)
        )
        _assert_identical(results["loop"], results["compiled"])
        _assert_identical(results["numpy"], results["compiled"])

    @pytest.mark.parametrize("keys_count", [1, 13, 24, 25, 47, 96])
    def test_block_skew_from_padding(self, keys_count):
        """Key counts that don't divide the worker count exercise padding."""
        rng = np.random.default_rng(keys_count)
        key_arr = rng.integers(0, 10**6, size=keys_count).astype(float)
        results = _run_all(key_arr, 5, PAPER_FAULTS)
        np.testing.assert_array_equal(
            results["compiled"].sorted_keys, np.sort(key_arr)
        )
        _assert_identical(results["loop"], results["compiled"])

    def test_mirror_substages_match(self):
        """The paper scenario's plan has mirror substages — swap-only
        traffic must land in the same phase records as the interpreter."""
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        assert sch.mirror_pair_count() > 0  # scenario really exercises mirrors
        rng = np.random.default_rng(99)
        key_arr = rng.integers(0, 10**6, size=120).astype(float)
        results = _run_all(key_arr, 5, PAPER_FAULTS)
        _assert_identical(results["loop"], results["compiled"])

    @pytest.mark.parametrize("params", [MachineParams.ncube2(), MachineParams.unit()])
    def test_parity_across_machine_params(self, params):
        rng = np.random.default_rng(5)
        key_arr = rng.integers(0, 10**6, size=64).astype(float)
        results = _run_all(key_arr, 4, [3, 9, 14], params=params)
        _assert_identical(results["loop"], results["compiled"])

    @pytest.mark.parametrize(
        "n,faults,make_keys",
        [
            (3, [5], lambda rng: rng.integers(0, 100, 40_000).astype(float)),
            (4, [3, 9, 14], lambda rng: rng.random(30_000)),
            (5, PAPER_FAULTS, lambda rng: rng.permutation(
                np.concatenate([np.full(10_000, 7.0), 14.0 * rng.random(10_000)]))),
        ],
        ids=["few-distinct-n3", "uniform-n4", "half-sevens-n5"],
    )
    def test_large_block_parity(self, n, faults, make_keys):
        """Blocks of 834-5,715 keys, with heavy ties in two cases.  The
        hypothesis test above never builds a block beyond 67 keys."""
        key_arr = make_keys(np.random.default_rng(n))
        results = _run_all(key_arr, n, faults)
        np.testing.assert_array_equal(
            results["compiled"].sorted_keys, np.sort(key_arr)
        )
        _assert_identical(results["loop"], results["compiled"])
        _assert_identical(results["numpy"], results["compiled"])

    def test_empty_input(self):
        results = _run_all(np.asarray([], dtype=float), 3, [5])
        assert results["compiled"].sorted_keys.size == 0
        _assert_identical(results["loop"], results["compiled"])


class TestObsParity:
    @pytest.mark.parametrize("n,faults", [(4, []), (4, [5]), (5, PAPER_FAULTS)])
    def test_sort_counters_and_phase_spans_match(self, n, faults):
        rng = np.random.default_rng(17)
        key_arr = rng.integers(0, 10**6, size=100).astype(float)
        tracers = {}
        for name in ("loop", "compiled"):
            tr = Tracer()
            fault_tolerant_sort(key_arr, n, faults, kernels=name, obs=tr)
            tracers[name] = tr
        a, b = tracers["loop"], tracers["compiled"]
        assert set(a.metrics.counters) == set(b.metrics.counters)
        for cname, counter in a.metrics.counters.items():
            assert counter.value == b.metrics.counters[cname].value, cname
        phase = lambda tr: sorted(
            (s.name, s.ts, s.dur) for s in tr.spans if s.cat == "phase"
        )
        assert phase(a) == phase(b)
        steps = lambda tr: {
            (s.name, s.ts, s.dur) for s in tr.spans if s.cat == "step"
        }
        assert steps(a) == steps(b)


class TestPlanCacheReplay:
    def test_warm_replay_hits_compiled_section(self):
        rng = np.random.default_rng(7)
        key_arr = rng.integers(0, 10**6, size=96).astype(float)
        PLAN_CACHE.clear()
        hits0 = PLAN_CACHE.hits["compiled"]
        misses0 = PLAN_CACHE.misses["compiled"]
        cold = fault_tolerant_sort(key_arr, 5, PAPER_FAULTS, kernels="compiled")
        assert PLAN_CACHE.misses["compiled"] == misses0 + 1
        warm = fault_tolerant_sort(key_arr, 5, PAPER_FAULTS, kernels="compiled")
        assert PLAN_CACHE.hits["compiled"] == hits0 + 1
        _assert_identical(cold, warm)

    def test_cache_off_identical(self):
        rng = np.random.default_rng(7)
        key_arr = rng.integers(0, 10**6, size=96).astype(float)
        on = fault_tolerant_sort(key_arr, 5, PAPER_FAULTS, kernels="compiled")
        PLAN_CACHE.configure(enabled=False)
        try:
            off = fault_tolerant_sort(key_arr, 5, PAPER_FAULTS, kernels="compiled")
        finally:
            PLAN_CACHE.configure(enabled=True)
        _assert_identical(on, off)


class TestHonestAccounting:
    def test_traffic_matches_closed_form_worst_case(self):
        """worst_case_elements == actual traffic + the 2k saved per probe-skip.

        Ties the schedule's closed-form bound (which charges every cx pair a
        full exchange) to the executed run: the only traffic ever elided is
        the two full blocks of a probe-skipped comparator, and mirror pairs
        always move their blocks.
        """
        rng = np.random.default_rng(3)
        key_arr = rng.integers(0, 10**6, size=120).astype(float)
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        tr = Tracer()
        result = fault_tolerant_sort(key_arr, 5, PAPER_FAULTS,
                                     kernels="compiled", obs=tr)
        k = result.block_size
        skipped = tr.metrics.counters["sort.cx.skipped"].value
        total_sent = sum(rec.elements_sent for rec in result.machine.phases)
        assert sch.worst_case_elements(k) == total_sent + 2 * k * skipped

    def test_mirror_phases_have_traffic_but_no_comparisons(self):
        rng = np.random.default_rng(3)
        key_arr = rng.integers(0, 10**6, size=120).astype(float)
        result = fault_tolerant_sort(key_arr, 5, PAPER_FAULTS, kernels="compiled")
        mirrors = [rec for rec in result.machine.phases
                   if rec.label.endswith("]b")]
        assert mirrors
        for rec in mirrors:
            assert rec.comparisons == 0
            assert rec.elements_sent > 0
            assert rec.messages > 0
