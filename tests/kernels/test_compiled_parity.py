"""Property tests: the compiled schedule tier is indistinguishable.

The ``compiled`` backend lowers a :class:`~repro.core.schedule.SortSchedule`
to flat index arrays and executes every substage as a handful of whole-key-
matrix numpy operations — but its contract is the same as every other
backend's: *execution strategy only*.  Sorted outputs are byte-identical,
the simulated clock is bit-identical, and every per-phase counter (the
comparison/traffic accounting the paper's cost model is built on) matches
the per-processor ``loop`` interpreter exactly.  Hypothesis drives three
routes (``KERNEL_ROUTES`` in ``tests/conftest.py``) over dimensions, key
counts (including block skew from padding), fault plans (fault-free, single-fault, and multi-fault plans with
mirror substages), and exact/worst-case local counting; further tests pin
obs counter parity, plan-cache warm replay, the honest-accounting
identity tying actual traffic to the schedule's closed-form worst case,
the executor's two compare-split regimes (sorted rows for small blocks,
selection for big ones: each forced on every input, and the block size
where one hands over to the other), and the split of each substage's
compare-splits across cores (forced on with uneven chunks, turned off on
one core, and safe across ``fork``).  Runs whose programs are bound to
one skeleton, stacked into one executor call, each equal their own call
(``TestJobAxis``).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.kernels.compiled as compiled
import repro.parallel as parallel
from repro.core.ftsort import fault_tolerant_sort, plan_partition, plan_sort
from repro.core.schedule import build_ft_schedule, lower_schedule
from repro.faults.injectors import ComparisonInjector, comparison_faults
from repro.faults.model import FaultKind, FaultSet
from repro.obs.spans import Tracer
from repro.plancache.cache import PLAN_CACHE
from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine
from tests.conftest import KERNEL_ROUTES, moved_fault_set

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


def _run_all(keys, n, faults, exact=False, params=None, step8="two-merge"):
    return {
        route: fault_tolerant_sort(keys, n, faults, exact_counts=exact,
                                   params=params, step8=step8, **kw)
        for route, kw in KERNEL_ROUTES.items()
    }


class TestCompiledParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=5),
        keys=st.integers(min_value=0, max_value=200),
        exact=st.booleans(),
        step8=st.sampled_from(["two-merge", "full-sort"]),
    )
    def test_three_way_parity(self, seed, n, keys, exact, step8):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(0, n))
        faults = sorted(rng.choice(1 << n, size=r, replace=False).tolist())
        key_arr = rng.integers(0, 10**6, size=keys).astype(float)
        results = _run_all(key_arr, n, faults, exact=exact, step8=step8)
        np.testing.assert_array_equal(
            results["compiled"].sorted_keys, np.sort(key_arr)
        )
        _assert_identical(results["loop"], results["compiled"])
        _assert_identical(results["interpreted"], results["compiled"])

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
        _assert_identical(results["interpreted"], results["compiled"])

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


def _spy_chunks(monkeypatch) -> list:
    """Record ``(thread name, sorted-rows regime)`` for every chunk of
    compare-splits that ``_split_pairs`` runs."""
    chunks = []
    real = compiled._split_pairs

    def spy(lo, hi, key_matrix, rows, pairs, lo_max, k):
        chunks.append((threading.current_thread().name, lo_max is None))
        real(lo, hi, key_matrix, rows, pairs, lo_max, k)

    monkeypatch.setattr(compiled, "_split_pairs", spy)
    return chunks


class TestCompareSplitRegimes:
    """Blocks of up to ``_SORTED_ROWS_MAX_K`` keys keep their rows sorted
    (one row sort per union); bigger ones select.  Both regimes leave the
    same multiset in every row after every substage, so forcing either
    one on any input changes no byte, clock tick or counter."""

    @settings(max_examples=25, deadline=None)
    @example(plan=(5, PAPER_FAULTS), keys=400, high=10**6, seed=0, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=397, high=20, seed=1, exact=True)
    @example(plan=(4, FaultSet(4, [3, 9, 14], kind=FaultKind.TOTAL)), keys=120,
             high=10**6, seed=5, exact=False)
    @given(
        plan=_fault_plans(),
        keys=st.integers(min_value=0, max_value=400),
        high=st.sampled_from([20, 10**6]),
        seed=st.integers(min_value=0, max_value=10_000),
        exact=st.booleans(),
    )
    def test_both_regimes_match_loop(self, plan, keys, high, seed, exact):
        """Selection everywhere (the bound at 0) and sorted rows
        everywhere (the bound above every block).  The examples pin a
        plan with mirror substages and a total-fault plan whose routes
        detour."""
        n, faults = plan
        key_arr = np.random.default_rng(seed).integers(0, high, size=keys).astype(float)
        loop, loop_counts = _traced_sort(key_arr, n, faults, "loop", exact)
        np.testing.assert_array_equal(loop.sorted_keys, np.sort(key_arr))
        for bound in (0, 1 << 30):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(compiled, "_SORTED_ROWS_MAX_K", bound)
                fast, fast_counts = _traced_sort(key_arr, n, faults, "compiled", exact)
            _assert_identical(loop, fast)
            assert fast_counts == loop_counts

    @pytest.mark.parametrize("block,sorted_rows", [
        (compiled._SORTED_ROWS_MAX_K, True),
        (compiled._SORTED_ROWS_MAX_K + 1, False),
    ])
    def test_regime_changes_above_the_bound(self, block, sorted_rows, monkeypatch):
        """Q5 with the paper's faults has 24 workers; one key short of
        ``24 * block`` leaves one padded row.  One-key chunks make every
        substage with two executed pairs report its regime."""
        keys = np.random.default_rng(block).integers(0, 10**6, 24 * block - 1).astype(float)
        chunks = _spy_chunks(monkeypatch)
        monkeypatch.setattr(compiled, "_MIN_CHUNK_KEYS", 1)
        monkeypatch.setattr(parallel, "_kernel_threads", 2)
        fast, fast_counts = _traced_sort(keys, 5, PAPER_FAULTS, "compiled")
        loop, loop_counts = _traced_sort(keys, 5, PAPER_FAULTS, "loop")
        assert fast.block_size == block
        assert chunks and {regime for _, regime in chunks} == {sorted_rows}
        _assert_identical(loop, fast)
        assert fast_counts == loop_counts


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
        substages, and one with 134-key blocks, above
        ``_SORTED_ROWS_MAX_K``, so they take the selection regime and its
        final row sort: numpy's partition can leave a union of up to 256
        keys fully sorted (it does on AVX-512 hosts), which would hide a
        row the final sort missed."""
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

    @staticmethod
    def _on_helper_threads(monkeypatch, keys, n, faults) -> set:
        """More threads than usable cores, switching as often as the
        interpreter allows: a chunk that wrote outside its own rows would
        show up as a changed byte.  Returns the regimes the chunks ran."""
        chunks = _spy_chunks(monkeypatch)
        monkeypatch.setattr(parallel, "_kernel_threads",
                            parallel.effective_cpu_count() + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split, split_counts = _traced_sort(keys, n, faults, "compiled")
        finally:
            sys.setswitchinterval(interval)
        assert any(name.startswith("repro-kernel") for name, _ in chunks)
        monkeypatch.setattr(parallel, "_kernel_threads", 1)
        serial, serial_counts = _traced_sort(keys, n, faults, "compiled")
        np.testing.assert_array_equal(split.sorted_keys, np.sort(keys))
        _assert_identical(serial, split)
        assert split_counts == serial_counts
        return {regime for _, regime in chunks}

    def test_large_sort_runs_chunks_on_helper_threads(self, monkeypatch):
        keys = np.random.default_rng(11).random(LARGE_KEYS)
        assert self._on_helper_threads(monkeypatch, keys, LARGE_N, LARGE_FAULTS) == {False}

    def test_small_block_sort_runs_chunks_on_helper_threads(self, monkeypatch):
        """2^18 keys on Q12 with faults {3, 9}: 4,094 rows of 65 keys, in
        the sorted-rows regime, and most substages split."""
        keys = np.random.default_rng(14).random(1 << 18)
        assert self._on_helper_threads(monkeypatch, keys, 12, [3, 9]) == {True}

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
    """Every route records the same spans in the same order, and the same
    counters: both walk one program, and the step spans are read off its
    phases after the run."""

    @pytest.mark.parametrize("n,faults", [
        (4, []), (4, [5]), (5, PAPER_FAULTS),
        (4, FaultSet(4, [3, 9, 14], kind=FaultKind.TOTAL)),
    ])
    def test_sort_counters_and_phase_spans_match(self, n, faults):
        rng = np.random.default_rng(17)
        key_arr = rng.integers(0, 10**6, size=100).astype(float)

        def spans(tr):
            return [(s.name, s.ts, s.dur, s.cat, s.args) for s in tr.spans]

        def counters(tr):
            return {name: c.value for name, c in tr.metrics.counters.items()}

        for step8 in ("two-merge", "full-sort"):
            tracers = {}
            for route, kw in KERNEL_ROUTES.items():
                tr = Tracer()
                fault_tolerant_sort(key_arr, n, faults, obs=tr, step8=step8, **kw)
                tracers[route] = tr
            ref = tracers["compiled"]
            assert any(s.cat == "step" for s in ref.spans)
            for route in ("loop", "interpreted"):
                assert spans(tracers[route]) == spans(ref), (route, step8)
                assert counters(tracers[route]) == counters(ref), (route, step8)


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


@st.composite
def _job_batches(draw):
    """A fault set on Q2-Q5 (partial, total, or with a faulty link), 1-6
    runs on moved copies of it, and each run's block size: 0, up to 40
    keys (sorted rows) or 129-140 keys (selection)."""
    n = draw(st.integers(min_value=2, max_value=5))
    kind = draw(st.sampled_from(["partial", "total", "link"]))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    procs = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          min_size=r, max_size=r, unique=True))
    links = []
    if kind == "link":
        a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        links = [(a, a ^ (1 << draw(st.integers(min_value=0, max_value=n - 1))))]
    try:
        base = FaultSet(n, procs, links=links,
                        kind=FaultKind.TOTAL if kind == "total" else FaultKind.PARTIAL)
    except ValueError:
        assume(False)
    ranges = {"empty": (0, 0), "small": (1, 40), "big": (129, 140)}
    block_sizes = [draw(st.integers(*ranges[regime])) for regime in draw(st.lists(
        st.sampled_from(["small", "small", "big", "big", "empty"]), min_size=1, max_size=2))]
    runs = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=(1 << n) - 1),   # shift
        st.permutations(range(n)),
        st.sampled_from(block_sizes),
        st.integers(min_value=0, max_value=10_000),          # key seed
    ), min_size=1, max_size=6))
    return base, runs


class TestJobAxis:
    """Runs stacked into one executor call (one call per skeleton and
    block size) each equal their own call: bytes, clock, phase records,
    placement, final blocks, ordered spans and ``sort.*`` counters."""

    @settings(max_examples=60, deadline=None)
    @example(batch=(FaultSet(5, PAPER_FAULTS), [(0, range(5), 20, 1), (7, range(5), 20, 2),
                                                (21, [4, 3, 2, 1, 0], 20, 3)]),
             step8="two-merge", exact=False, high=10**6, p=0.0, split=False)
    @example(batch=(FaultSet(4, [3, 9, 14], kind=FaultKind.TOTAL),
                    [(0, range(4), 130, 1), (5, [1, 0, 3, 2], 130, 2), (9, range(4), 3, 4)]),
             step8="two-merge", exact=True, high=20, p=0.0, split=True)
    @given(
        batch=_job_batches(),
        step8=st.sampled_from(["two-merge", "full-sort"]),
        exact=st.booleans(),
        high=st.sampled_from([20, 10**6]),
        p=st.sampled_from([0.0, 0.0, 0.02]),
        split=st.booleans(),
    )
    def test_batched_runs_equal_their_own_calls(self, batch, step8, exact, high, p, split):
        """``p > 0`` runs under an active comparison injector; ``split``
        forces the split across cores with one-key chunks.  The examples
        pin a plan with mirror substages, and a detouring one whose
        inter-subcube hops differ from run to run."""
        base, runs = batch
        requests = []
        for shift, perm, block, seed in runs:
            fault_set = moved_fault_set(base, shift, list(perm))
            try:
                workers = plan_sort([], base.n, fault_set, step8=step8).program.workers
            except ValueError:  # outside the paper's model
                assume(False)
            count = 0 if block == 0 else workers * (block - 1) + 1 + seed % workers
            keys = np.random.default_rng(seed).integers(0, high, size=count).astype(float)
            requests.append((keys, fault_set))

        with pytest.MonkeyPatch.context() as mp:
            if split:
                mp.setattr(compiled, "_MIN_CHUNK_KEYS", 1)
                mp.setattr(parallel, "_kernel_threads", 3)
            alone = []
            alone_inj = ComparisonInjector(p, seed=42)
            with comparison_faults(alone_inj):
                for keys, fs in requests:
                    tracer = Tracer()
                    alone.append((fault_tolerant_sort(
                        keys, base.n, fs, exact_counts=exact, step8=step8, obs=tracer,
                        kernels="compiled"), tracer))
            planned = [plan_sort(keys, base.n, fs, step8=step8, obs=Tracer())
                       for keys, fs in requests]
            groups: dict = {}
            for i, sort in enumerate(planned):
                groups.setdefault(sort.group, []).append(i)
            together = [None] * len(planned)
            batch_inj = ComparisonInjector(p, seed=42)
            with comparison_faults(batch_inj):
                for members in groups.values():
                    outs = compiled.run_schedule_compiled(
                        [(planned[i].machine, planned[i].program, planned[i].keys)
                         for i in members], exact_counts=exact)
                    for i, out in zip(members, outs):
                        together[i] = planned[i].result(*out)
        for (single, single_tr), result, sort in zip(alone, together, planned):
            _assert_identical(single, result)
            assert result.machine.blocks.keys() == single.machine.blocks.keys()
            tr = sort.machine.obs
            assert [(s.name, s.ts, s.dur, s.cat, s.args) for s in tr.spans] == \
                [(s.name, s.ts, s.dur, s.cat, s.args) for s in single_tr.spans]
            assert _sort_counters(tr) == _sort_counters(single_tr)
        assert (batch_inj.fired, batch_inj.fired_probe, batch_inj.evaluated) == (
            alone_inj.fired, alone_inj.fired_probe, alone_inj.evaluated)

    def test_runs_of_two_skeletons_are_refused(self):
        keys = np.arange(40.0)
        sorts = [plan_sort(keys, 5, faults) for faults in ([3, 5], [1])]
        with pytest.raises(ValueError, match="one skeleton"):
            compiled.run_schedule_compiled(
                [(s.machine, s.program, s.keys) for s in sorts])
