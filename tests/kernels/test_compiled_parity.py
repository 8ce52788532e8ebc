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
obs counter parity, plan-cache warm replay, the honest-accounting
identity tying actual traffic to the schedule's closed-form worst case,
and the split of each substage's compare-splits across cores (forced on
with uneven chunks, turned off on one core, and safe across ``fork``).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.kernels.compiled as compiled
import repro.parallel as parallel
from repro.core.ftsort import fault_tolerant_sort, plan_partition
from repro.core.schedule import build_ft_schedule, lower_schedule
from repro.faults.model import FaultKind, FaultSet
from repro.obs.spans import Tracer
from repro.plancache.cache import PLAN_CACHE
from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine

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

    @pytest.mark.parametrize("params", [MachineParams.ncube2(), MachineParams.unit()])
    @pytest.mark.parametrize("n,faults", [(4, [3, 9, 14]), (5, [1, 2])])
    def test_parity_with_total_fault_detours(self, params, n, faults):
        """Routes around totally faulty nodes make hop counts differ
        within a substage (up to 4 hops here), so each phase's duration
        is the clock of its longest route, skipped or executed."""
        fault_set = FaultSet(n, faults, kind=FaultKind.TOTAL)
        _, sel = plan_partition(n, faults)
        program = lower_schedule(build_ft_schedule(sel), PhaseMachine(n, faults=fault_set).hops)
        assert any(sub.uniform_hops is None for sub in program.substages)
        rng = np.random.default_rng(5)
        key_arr = rng.integers(0, 10**6, size=120).astype(float)
        results = _run_all(key_arr, n, fault_set, params=params)
        _assert_identical(results["loop"], results["compiled"])

    def test_empty_input(self):
        results = _run_all(np.asarray([], dtype=float), 3, [5])
        assert results["compiled"].sorted_keys.size == 0
        _assert_identical(results["loop"], results["compiled"])


def _sort_counters(tracer) -> dict:
    return {name: c.value for name, c in tracer.metrics.counters.items()
            if name.startswith("sort.")}


def _traced_sort(keys, n, faults, kernels, exact=False):
    tracer = Tracer()
    result = fault_tolerant_sort(keys, n, faults, kernels=kernels,
                                 exact_counts=exact, obs=tracer)
    return result, _sort_counters(tracer)


@st.composite
def _fault_plans(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    faults = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                           unique=True, max_size=n - 1))
    return n, sorted(faults)


#: 2^18 keys on Q6 with faults {3, 9}: 62 rows of 4,229 keys, so every
#: substage and the final sort are far above two chunks of the real
#: ``_MIN_CHUNK_KEYS``.
LARGE_N, LARGE_FAULTS, LARGE_KEYS = 6, [3, 9], 1 << 18


class TestSplitAcrossCores:
    """Chunking a substage's compare-splits across helper threads changes
    wall time only: bytes, clock, phases and counters stay identical."""

    @settings(max_examples=25, deadline=None)
    @example(plan=(5, PAPER_FAULTS), keys=400, high=10**6, seed=0, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=397, high=20, seed=1, exact=True)
    @example(plan=(2, [1]), keys=400, high=10**6, seed=2, exact=False)
    @given(
        plan=_fault_plans(),
        keys=st.integers(min_value=0, max_value=400),
        high=st.sampled_from([20, 10**6]),
        seed=st.integers(min_value=0, max_value=10_000),
        exact=st.booleans(),
    )
    def test_forced_uneven_split_matches_serial_and_loop(self, plan, keys, high,
                                                         seed, exact):
        """One-key chunks and a budget of 3 threads: every substage with
        two or more executed pairs splits, unevenly whenever the count is
        not a multiple of 3.  The examples pin a plan with mirror
        substages, and one with 134-key blocks: numpy's partition can
        leave a union of up to 256 keys fully sorted (it does on AVX-512
        hosts), which would hide a row the final sort missed."""
        n, faults = plan
        key_arr = np.random.default_rng(seed).integers(0, high, size=keys).astype(float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "_MIN_CHUNK_KEYS", 1)
            mp.setattr(parallel, "_kernel_threads", 3)
            split, split_counts = _traced_sort(key_arr, n, faults, "compiled", exact)
            mp.setattr(parallel, "_kernel_threads", 1)
            serial, serial_counts = _traced_sort(key_arr, n, faults, "compiled", exact)
        loop, loop_counts = _traced_sort(key_arr, n, faults, "loop", exact)
        np.testing.assert_array_equal(split.sorted_keys, np.sort(key_arr))
        _assert_identical(serial, split)
        _assert_identical(loop, split)
        assert split_counts == serial_counts == loop_counts

    def test_large_sort_runs_chunks_on_helper_threads(self, monkeypatch):
        """More threads than usable cores, switching as often as the
        interpreter allows: a chunk that wrote outside its own rows would
        show up as a changed byte."""
        keys = np.random.default_rng(11).random(LARGE_KEYS)
        workers = set()
        real = compiled._split_pairs

        def spy(*args):
            workers.add(threading.current_thread().name)
            real(*args)

        monkeypatch.setattr(compiled, "_split_pairs", spy)
        monkeypatch.setattr(parallel, "_kernel_threads",
                            parallel.effective_cpu_count() + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split, split_counts = _traced_sort(keys, LARGE_N, LARGE_FAULTS, "compiled")
        finally:
            sys.setswitchinterval(interval)
        assert any(name.startswith("repro-kernel") for name in workers)
        monkeypatch.setattr(parallel, "_kernel_threads", 1)
        serial, serial_counts = _traced_sort(keys, LARGE_N, LARGE_FAULTS, "compiled")
        np.testing.assert_array_equal(split.sorted_keys, np.sort(keys))
        _assert_identical(serial, split)
        assert split_counts == serial_counts

    def test_one_usable_core_starts_no_helper_thread(self, monkeypatch):
        monkeypatch.setattr(parallel, "effective_cpu_count", lambda: 1)
        monkeypatch.setattr(compiled, "_helpers", None)
        before = set(threading.enumerate())
        keys = np.random.default_rng(12).random(LARGE_KEYS)
        result = fault_tolerant_sort(keys, LARGE_N, LARGE_FAULTS, kernels="compiled")
        np.testing.assert_array_equal(result.sorted_keys, np.sort(keys))
        assert compiled._helpers is None
        assert not set(threading.enumerate()) - before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_split_sort_in_forked_child(self, monkeypatch):
        """A forked child inherits the helper pool object but not its
        threads; its own splitting sort must not wait on them forever."""
        monkeypatch.setattr(parallel, "_kernel_threads", 2)
        keys = np.random.default_rng(13).random(LARGE_KEYS)
        expected = np.sort(keys)
        first = fault_tolerant_sort(keys, LARGE_N, LARGE_FAULTS, kernels="compiled")
        np.testing.assert_array_equal(first.sorted_keys, expected)
        assert compiled._helpers is not None
        pid = os.fork()
        if pid == 0:  # child: report through the exit status only
            code = 1
            try:
                again = fault_tolerant_sort(keys, LARGE_N, LARGE_FAULTS,
                                            kernels="compiled")
                code = 0 if np.array_equal(again.sorted_keys, expected) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child's splitting sort did not finish in 60 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


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
