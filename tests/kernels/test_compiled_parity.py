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
(``TestJobAxis``).  Those three suites draw their keys from families that
reach every key path of the executor (the int32 cast, dense int32 ranks
and float64), and ``TestKeyPaths`` checks which path each input takes.
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
from repro.faults.injectors import (ComparisonInjector, MemoryInjector, comparison_faults,
                                    memory_faults)
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


def _assert_identical(a, b, same_bytes=True):
    """Full result parity: output bytes, clock, phases, final placement.

    ``same_bytes=False`` compares the keys by value only, for inputs with
    both ``-0.0`` and ``0.0``: no tier pins their order, and numpy's row
    sort of up to 256 keys may turn one into the other."""
    np.testing.assert_array_equal(a.sorted_keys, b.sorted_keys)
    if same_bytes:
        assert a.sorted_keys.tobytes() == b.sorted_keys.tobytes()
    assert a.elapsed == b.elapsed  # bit-exact, not approx
    assert a.output_order == b.output_order
    assert a.block_size == b.block_size
    assert len(a.machine.phases) == len(b.machine.phases)
    for ra, rb in zip(a.machine.phases, b.machine.phases):
        assert _record_tuple(ra) == _record_tuple(rb)
        # Same types too: a numpy integer among them would not serialize.
        assert list(map(type, _record_tuple(ra))) == list(map(type, _record_tuple(rb)))
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


#: Key families of the parity suites.  Integer-valued keys take the int32
#: cast (unless an extreme of ``int-bounds`` is out of its range), other
#: keys dense ranks in the sorted-rows regime and float64 in the selection
#: regime, and keys with a ``-0.0`` float64 in both.
KEY_FAMILIES = ("ints", "int-ties", "int-bounds", "floats", "float-ties", "neg-zero")


def _family_keys(family: str, seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "ints":
        return rng.integers(-10**6, 10**6, size=count).astype(float)
    if family == "int-ties":
        return rng.integers(-3, 20, size=count).astype(float)
    if family == "int-bounds":
        # Each of int32's least value, the pads' image and the first
        # value past int32 is present half the time.
        keys = rng.integers(-50, 50, size=count).astype(float)
        for extreme in (-2.0**31, 2.0**31 - 1, 2.0**31):
            if count and rng.random() < 0.5:
                keys[rng.integers(count, size=1 + count // 8)] = extreme
        return keys
    if family == "floats":
        return 2 * rng.random(count) - 1
    if family == "float-ties":
        return rng.choice(rng.random(5), size=count)
    assert family == "neg-zero"
    return rng.choice([-0.0, 0.0, -1.5, 0.25, 3.0], size=count)


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
    """Record ``(thread name, sorted-rows regime, key dtype)`` for every
    chunk of compare-splits that ``_split_pairs`` runs."""
    chunks = []
    real = compiled._split_pairs

    def spy(lo, hi, records, rows, gathered, lo_max, k):
        chunks.append((threading.current_thread().name, lo_max is None,
                       gathered.dtype.name))
        real(lo, hi, records, rows, gathered, lo_max, k)

    monkeypatch.setattr(compiled, "_split_pairs", spy)
    return chunks


class TestCompareSplitRegimes:
    """Blocks of up to ``_SORTED_ROWS_MAX_K`` keys keep their rows sorted
    (one row sort per union); bigger ones select.  Both regimes leave the
    same multiset in every row after every substage, so forcing either
    one on any input changes no byte, clock tick or counter."""

    @settings(max_examples=30, deadline=None)
    @example(plan=(5, PAPER_FAULTS), keys=400, family="ints", seed=0, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=397, family="int-ties", seed=1, exact=True)
    @example(plan=(4, FaultSet(4, [3, 9, 14], kind=FaultKind.TOTAL)), keys=120,
             family="ints", seed=5, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=400, family="float-ties", seed=2, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=397, family="floats", seed=3, exact=True)
    @example(plan=(4, [3, 9, 14]), keys=300, family="int-bounds", seed=8, exact=False)
    @example(plan=(4, [3, 9, 14]), keys=300, family="int-bounds", seed=4, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=350, family="neg-zero", seed=4, exact=False)
    @given(
        plan=_fault_plans(),
        keys=st.integers(min_value=0, max_value=400),
        family=st.sampled_from(KEY_FAMILIES),
        seed=st.integers(min_value=0, max_value=10_000),
        exact=st.booleans(),
    )
    def test_both_regimes_match_loop(self, plan, keys, family, seed, exact):
        """Selection everywhere (the bound at 0) and sorted rows
        everywhere (the bound above every block), on every key family.
        The examples pin a plan with mirror substages and a total-fault
        plan whose routes detour, and give each key path a case: tied
        floats (ranks, then float64), keys down to int32's least value
        (the cast), and keys that reach the pads' image ``2**31 - 1``
        (ranks, then float64)."""
        n, faults = plan
        key_arr = _family_keys(family, seed, keys)
        loop, loop_counts = _traced_sort(key_arr, n, faults, "loop", exact)
        np.testing.assert_array_equal(loop.sorted_keys, np.sort(key_arr))
        for bound in (0, 1 << 30):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(compiled, "_SORTED_ROWS_MAX_K", bound)
                fast, fast_counts = _traced_sort(key_arr, n, faults, "compiled", exact)
            _assert_identical(loop, fast, same_bytes=family != "neg-zero")
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
        monkeypatch.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
        monkeypatch.setattr(parallel, "_kernel_threads", 2)
        fast, fast_counts = _traced_sort(keys, 5, PAPER_FAULTS, "compiled")
        loop, loop_counts = _traced_sort(keys, 5, PAPER_FAULTS, "loop")
        assert fast.block_size == block
        assert chunks and {regime for _, regime, _ in chunks} == {sorted_rows}
        _assert_identical(loop, fast)
        assert fast_counts == loop_counts


def _spy_key_paths(monkeypatch) -> list:
    """Record the key path of every run the executor encodes: ``"cast"``,
    ``"ranks"``, or ``"float64"`` where the encoder declines."""
    paths = []
    real = compiled._key_image

    def spy(keys, size, sorted_rows):
        encoded = real(keys, size, sorted_rows)
        paths.append("float64" if encoded is None
                     else "cast" if encoded[1] is None else "ranks")
        return encoded

    monkeypatch.setattr(compiled, "_key_image", spy)
    return paths


def _with_extreme(value):
    """Integer keys with ``value`` among them."""
    def make(rng, count):
        keys = rng.integers(-10**6, 10**6, size=count).astype(float)
        keys[rng.integers(count, size=3)] = value
        return keys
    return make


class TestKeyPaths:
    """Which path each input takes: integer keys in int32's range (the
    pads' image excluded) take the cast in either regime, other keys
    dense ranks in the sorted-rows regime, and float64 otherwise, under
    an active injector, or with a ``-0.0`` among the keys.  Q5 with the
    paper's faults has 24 workers; one key short of ``24 * block`` leaves
    one padded row.  One-key chunks make ``_split_pairs`` report the
    dtype the substages ran on."""

    @pytest.mark.parametrize("make_keys,block,path", [
        (lambda rng, c: rng.integers(0, 10**6, c).astype(float), 17, "cast"),
        (lambda rng, c: rng.integers(0, 10**6, c).astype(float), 200, "cast"),
        (_with_extreme(-2.0**31), 17, "cast"),
        (_with_extreme(-2.0**31), 200, "cast"),
        (lambda rng, c: rng.random(c), 17, "ranks"),
        (lambda rng, c: rng.random(c), compiled._SORTED_ROWS_MAX_K, "ranks"),
        (lambda rng, c: rng.random(c), compiled._SORTED_ROWS_MAX_K + 1, "float64"),
        (_with_extreme(2.0**31 - 1), 17, "ranks"),
        (_with_extreme(2.0**31 - 1), 200, "float64"),
        (_with_extreme(2.0**31), 17, "ranks"),
        (_with_extreme(-0.0), 17, "float64"),
        (_with_extreme(-0.0), 200, "float64"),
        (lambda rng, c: rng.choice([-0.0, 0.0, 0.5], c), 17, "float64"),
    ], ids=["ints-small", "ints-big", "int32-least-small", "int32-least-big",
            "floats-small", "floats-at-bound", "floats-past-bound", "pad-image-small",
            "pad-image-big", "past-int32", "ints-neg-zero-small", "ints-neg-zero-big",
            "floats-neg-zero"])
    def test_path_follows_keys_and_regime(self, make_keys, block, path, monkeypatch):
        keys = make_keys(np.random.default_rng(block), 24 * block - 1)
        paths = _spy_key_paths(monkeypatch)
        chunks = _spy_chunks(monkeypatch)
        monkeypatch.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
        monkeypatch.setattr(parallel, "_kernel_threads", 2)
        fast, fast_counts = _traced_sort(keys, 5, PAPER_FAULTS, "compiled")
        assert fast.block_size == block
        assert paths == [path]
        assert chunks and {dtype for _, _, dtype in chunks} == {
            "float64" if path == "float64" else "int32"}
        loop, loop_counts = _traced_sort(keys, 5, PAPER_FAULTS, "loop")
        _assert_identical(loop, fast, same_bytes=not np.signbit(keys[keys == 0]).any())
        assert fast_counts == loop_counts

    @pytest.mark.parametrize("injected", ["comparison", "memory"])
    @pytest.mark.parametrize("block", [17, 200])
    def test_active_injector_keeps_float64(self, injected, block, monkeypatch):
        """The comparison injector hashes operand values and the memory
        injector corrupts the float store, so neither call encodes."""
        keys = np.random.default_rng(block).integers(0, 10**6, 24 * block - 1).astype(float)
        paths = _spy_key_paths(monkeypatch)
        chunks = _spy_chunks(monkeypatch)
        monkeypatch.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
        monkeypatch.setattr(parallel, "_kernel_threads", 2)
        if injected == "comparison":
            with comparison_faults(ComparisonInjector(0.02, seed=3)) as inj:
                fault_tolerant_sort(keys, 5, PAPER_FAULTS, kernels="compiled")
            assert inj.evaluated
        else:
            with memory_faults(MemoryInjector(0.01, seed=3)) as inj:
                fault_tolerant_sort(keys, 5, PAPER_FAULTS, kernels="compiled")
            assert inj.corrupted
            assert chunks and {dtype for _, _, dtype in chunks} == {"float64"}
        assert paths == []

    @pytest.mark.parametrize("block,paths_seen,dtype", [
        (17, ["cast", "ranks"], "int32"),
        (200, ["cast", "float64"], "float64"),
    ])
    def test_batch_narrows_only_if_every_run_does(self, block, paths_seen, dtype,
                                                  monkeypatch):
        """An integer-keyed run and a float-keyed run in one call: each
        is encoded on its own, and one run on float64 keeps the batch
        there.  Each run still equals its own call."""
        rng = np.random.default_rng(block)
        count = 24 * block - 1
        requests = [(rng.integers(0, 10**6, count).astype(float), PAPER_FAULTS),
                    (rng.random(count), [a ^ 7 for a in PAPER_FAULTS])]
        alone = [fault_tolerant_sort(keys, 5, faults, kernels="compiled")
                 for keys, faults in requests]
        planned = [plan_sort(keys, 5, faults) for keys, faults in requests]
        assert planned[0].group == planned[1].group
        paths = _spy_key_paths(monkeypatch)
        chunks = _spy_chunks(monkeypatch)
        monkeypatch.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
        monkeypatch.setattr(parallel, "_kernel_threads", 2)
        outs = compiled.run_schedule_compiled(
            [(sort.machine, sort.program, sort.keys) for sort in planned])
        assert paths == paths_seen
        assert chunks and {dtype for _, _, dtype in chunks} == {dtype}
        for single, sort, out in zip(alone, planned, outs):
            _assert_identical(single, sort.result(*out))


class TestRecordWrites:
    """The substage loop writes whole rows as records, one per row of the
    key matrix, and picks the executed pairs' rows with one compress of
    the program's ``(P, 2)`` pair array.  Pinned against ``loop``: the
    smallest records, no keys at all, a stacked batch with mirror
    substages, and exact counts, whose heapsort returns a new matrix the
    record view must follow."""

    @pytest.mark.parametrize("family,itemsize", [("ints", 4), ("floats", 4), ("neg-zero", 8)])
    def test_one_key_blocks(self, family, itemsize, monkeypatch):
        """Q5 with the paper's faults has 24 workers, so 24 keys make
        1-key blocks: records of one int32 (cast or ranks) or one float64
        (a ``-0.0`` keeps the call there)."""
        keys = _family_keys(family, 5, 24)
        seen = []
        real = compiled._split_pairs

        def spy(lo, hi, records, *rest):
            seen.append(records.dtype.itemsize)
            real(lo, hi, records, *rest)

        monkeypatch.setattr(compiled, "_split_pairs", spy)
        monkeypatch.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
        monkeypatch.setattr(parallel, "_kernel_threads", 2)
        for exact in (False, True):
            fast, fast_counts = _traced_sort(keys, 5, PAPER_FAULTS, "compiled", exact)
            loop, loop_counts = _traced_sort(keys, 5, PAPER_FAULTS, "loop", exact)
            assert fast.block_size == 1
            _assert_identical(loop, fast, same_bytes=family != "neg-zero")
            assert fast_counts == loop_counts
        assert seen and set(seen) == {itemsize}

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_keys(self, exact):
        """No keys: every cx substage is an empty barrier and every
        mirror substage moves nothing, alone and stacked."""
        fast = fault_tolerant_sort([], 5, PAPER_FAULTS, exact_counts=exact)
        loop = fault_tolerant_sort([], 5, PAPER_FAULTS, exact_counts=exact, kernels="loop")
        assert fast.sorted_keys.size == 0 and fast.block_size == 0
        _assert_identical(loop, fast)
        plans = [[a ^ shift for a in PAPER_FAULTS] for shift in (0, 7)]
        planned = [plan_sort([], 5, faults) for faults in plans]
        outs = compiled.run_schedule_compiled(
            [(sort.machine, sort.program, sort.keys) for sort in planned], exact_counts=exact)
        for faults, sort, out in zip(plans, planned, outs):
            loop = fault_tolerant_sort([], 5, faults, exact_counts=exact, kernels="loop")
            _assert_identical(loop, sort.result(*out))

    @pytest.mark.parametrize("block", [20, 140])
    @pytest.mark.parametrize("exact", [False, True])
    def test_three_run_batch_with_mirror_substages(self, block, exact):
        """Three runs bound to the paper plan's skeleton, stacked: the
        job axis offsets the pair array, and each run's mirror swaps move
        its own rows only.  Each run equals ``loop``."""
        _, sel = plan_partition(5, PAPER_FAULTS)
        assert build_ft_schedule(sel).mirror_pair_count() > 0
        rng = np.random.default_rng(block)
        requests = [(rng.integers(0, 10**6, 24 * block - run).astype(float),
                     [a ^ shift for a in PAPER_FAULTS])
                    for run, shift in enumerate((0, 7, 21))]
        planned = [plan_sort(keys, 5, faults) for keys, faults in requests]
        assert len({sort.group for sort in planned}) == 1
        outs = compiled.run_schedule_compiled(
            [(sort.machine, sort.program, sort.keys) for sort in planned], exact_counts=exact)
        for (keys, faults), sort, out in zip(requests, planned, outs):
            loop = fault_tolerant_sort(keys, 5, faults, exact_counts=exact, kernels="loop")
            _assert_identical(loop, sort.result(*out))

    @pytest.mark.parametrize("block,family", [
        (17, "ints"), (17, "floats"), (200, "ints"), (200, "floats")])
    def test_exact_counts_follow_the_heapsorted_matrix(self, block, family, monkeypatch):
        """``exact_counts=True``: ``heapsort_batch`` returns a new key
        matrix, and every record write must land in it.  Both regimes,
        on int32 and float64 keys, with and without the split."""
        keys = _family_keys(family, block, 24 * block - 1)
        loop, loop_counts = _traced_sort(keys, 5, PAPER_FAULTS, "loop", True)
        for threads in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
                mp.setattr(parallel, "_kernel_threads", threads)
                fast, fast_counts = _traced_sort(keys, 5, PAPER_FAULTS, "compiled", True)
            assert fast.block_size == block
            _assert_identical(loop, fast)
            assert fast_counts == loop_counts


#: 2^18 keys on Q6 with faults {3, 9}: 62 rows of 4,229 keys, so every
#: substage and the final sort are far above two chunks of the real
#: ``_MIN_CHUNK_BYTES``.
LARGE_N, LARGE_FAULTS, LARGE_KEYS = 6, [3, 9], 1 << 18


class TestSplitAcrossCores:
    """Chunking a substage's compare-splits across helper threads changes
    wall time only: bytes, clock, phases and counters stay identical."""

    @settings(max_examples=30, deadline=None)
    @example(plan=(5, PAPER_FAULTS), keys=400, family="ints", seed=0, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=397, family="int-ties", seed=1, exact=True)
    @example(plan=(2, [1]), keys=400, family="ints", seed=2, exact=False)
    @example(plan=(2, [1]), keys=400, family="floats", seed=3, exact=False)
    @example(plan=(5, PAPER_FAULTS), keys=390, family="float-ties", seed=4, exact=False)
    @given(
        plan=_fault_plans(),
        keys=st.integers(min_value=0, max_value=400),
        family=st.sampled_from(KEY_FAMILIES),
        seed=st.integers(min_value=0, max_value=10_000),
        exact=st.booleans(),
    )
    def test_forced_uneven_split_matches_serial_and_loop(self, plan, keys, family,
                                                         seed, exact):
        """One-key chunks and a budget of 3 threads: every substage with
        two or more executed pairs splits, unevenly whenever the count is
        not a multiple of 3.  The examples pin a plan with mirror
        substages, and one with 134-key blocks, above
        ``_SORTED_ROWS_MAX_K``, so they take the selection regime and its
        final row sort: numpy's partition can leave a union of up to 256
        keys fully sorted (it does on AVX-512 hosts), which would hide a
        row the final sort missed.  Those blocks run on the cast for
        integer keys and on float64 for floats."""
        n, faults = plan
        key_arr = _family_keys(family, seed, keys)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
            mp.setattr(parallel, "_kernel_threads", 3)
            split, split_counts = _traced_sort(key_arr, n, faults, "compiled", exact)
            mp.setattr(parallel, "_kernel_threads", 1)
            serial, serial_counts = _traced_sort(key_arr, n, faults, "compiled", exact)
        loop, loop_counts = _traced_sort(key_arr, n, faults, "loop", exact)
        np.testing.assert_array_equal(split.sorted_keys, np.sort(key_arr))
        _assert_identical(serial, split)
        _assert_identical(loop, split, same_bytes=family != "neg-zero")
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
        assert any(name.startswith("repro-kernel") for name, _, _ in chunks)
        monkeypatch.setattr(parallel, "_kernel_threads", 1)
        serial, serial_counts = _traced_sort(keys, n, faults, "compiled")
        np.testing.assert_array_equal(split.sorted_keys, np.sort(keys))
        _assert_identical(serial, split)
        assert split_counts == serial_counts
        return {regime for _, regime, _ in chunks}

    def test_large_sort_runs_chunks_on_helper_threads(self, monkeypatch):
        keys = np.random.default_rng(11).random(LARGE_KEYS)
        assert self._on_helper_threads(monkeypatch, keys, LARGE_N, LARGE_FAULTS) == {False}

    def test_small_block_sort_runs_chunks_on_helper_threads(self, monkeypatch):
        """2^19 keys on Q13 with faults {3, 9}: 8,190 rows of 65 keys, in
        the sorted-rows regime on dense int32 ranks, and most substages
        split."""
        keys = np.random.default_rng(14).random(1 << 19)
        assert self._on_helper_threads(monkeypatch, keys, 13, [3, 9]) == {True}

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
    runs on moved copies of it, and each run's block size (0, up to 40
    keys (sorted rows) or 129-140 keys (selection)) and key family (one
    or two per batch)."""
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
    families = draw(st.lists(st.sampled_from(KEY_FAMILIES), min_size=1, max_size=2))
    runs = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=(1 << n) - 1),   # shift
        st.permutations(range(n)),
        st.sampled_from(block_sizes),
        st.integers(min_value=0, max_value=10_000),          # key seed
        st.sampled_from(families),
    ), min_size=1, max_size=6))
    return base, runs


class TestJobAxis:
    """Runs stacked into one executor call (one call per skeleton and
    block size) each equal their own call: bytes, clock, phase records,
    placement, final blocks, ordered spans and ``sort.*`` counters.  Each
    run's own call equals ``loop``'s."""

    @settings(max_examples=60, deadline=None)
    @example(batch=(FaultSet(5, PAPER_FAULTS),
                    [(0, range(5), 20, 1, "ints"), (7, range(5), 20, 2, "ints"),
                     (21, [4, 3, 2, 1, 0], 20, 3, "ints")]),
             step8="two-merge", exact=False, p=0.0, split=False)
    @example(batch=(FaultSet(4, [3, 9, 14], kind=FaultKind.TOTAL),
                    [(0, range(4), 130, 1, "int-ties"), (5, [1, 0, 3, 2], 130, 2, "int-ties"),
                     (9, range(4), 3, 4, "int-ties")]),
             step8="two-merge", exact=True, p=0.0, split=True)
    @example(batch=(FaultSet(5, PAPER_FAULTS),
                    [(0, range(5), 30, 5, "ints"), (7, range(5), 30, 6, "float-ties"),
                     (21, [4, 3, 2, 1, 0], 30, 7, "floats")]),
             step8="two-merge", exact=False, p=0.0, split=True)
    @example(batch=(FaultSet(4, [3, 9, 14]),
                    [(0, range(4), 135, 8, "int-ties"), (5, [1, 0, 3, 2], 135, 9, "floats")]),
             step8="full-sort", exact=False, p=0.0, split=False)
    @given(
        batch=_job_batches(),
        step8=st.sampled_from(["two-merge", "full-sort"]),
        exact=st.booleans(),
        p=st.sampled_from([0.0, 0.0, 0.02]),
        split=st.booleans(),
    )
    def test_batched_runs_equal_their_own_calls(self, batch, step8, exact, p, split):
        """``p > 0`` runs under an active comparison injector; ``split``
        forces the split across cores with one-key chunks.  The examples
        pin a plan with mirror substages, a detouring one whose
        inter-subcube hops differ from run to run, and batches that mix
        integer and float keys: in the sorted-rows regime each run keeps
        its own int32 image (a cast or ranks), in the selection regime
        the float run keeps the whole batch on float64."""
        base, runs = batch
        requests = []
        for shift, perm, block, seed, family in runs:
            fault_set = moved_fault_set(base, shift, list(perm))
            try:
                workers = plan_sort([], base.n, fault_set, step8=step8).program.workers
            except ValueError:  # outside the paper's model
                assume(False)
            count = 0 if block == 0 else workers * (block - 1) + 1 + seed % workers
            requests.append((_family_keys(family, seed, count), fault_set, family))

        with pytest.MonkeyPatch.context() as mp:
            if split:
                mp.setattr(compiled, "_MIN_CHUNK_BYTES", 1)
                mp.setattr(parallel, "_kernel_threads", 3)
            alone = []
            alone_inj = ComparisonInjector(p, seed=42)
            with comparison_faults(alone_inj):
                for keys, fs, _ in requests:
                    tracer = Tracer()
                    alone.append((fault_tolerant_sort(
                        keys, base.n, fs, exact_counts=exact, step8=step8, obs=tracer,
                        kernels="compiled"), tracer))
            planned = [plan_sort(keys, base.n, fs, step8=step8, obs=Tracer())
                       for keys, fs, _ in requests]
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
        for (single, single_tr), result, sort, (keys, fs, family) in zip(
                alone, together, planned, requests):
            if p == 0.0:
                loop_tr = Tracer()
                loop = fault_tolerant_sort(keys, base.n, fs, exact_counts=exact, step8=step8,
                                           obs=loop_tr, kernels="loop")
                _assert_identical(loop, single, same_bytes=family != "neg-zero")
                assert _sort_counters(loop_tr) == _sort_counters(single_tr)
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
