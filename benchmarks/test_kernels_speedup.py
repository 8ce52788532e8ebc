"""Kernel-backend speedup benchmark — writes ``BENCH_kernels.json``.

The headline measurements from the PERFORMANCE.md contract:

* end-to-end :func:`fault_tolerant_sort` at ``n = 4``, ``M = 16000``,
  ``r = 3`` with the ``compiled`` backend versus the ``loop`` reference
  (same sorted bytes, same simulated cost — only wall-clock may differ);
* the compiled schedule executor versus the same kernels on the per-pair
  interpreter (``n = 15``, ``M = 10^6``, ``r = 4``);
* the compiled tier with each substage's compare-splits split across the
  usable cores versus the same call held to one core (``n = 10``,
  ``M = 10^6``, faults ``{3, 9}``);
* the compiled tier's sorted-rows compare-split against its selection
  compare-split, across block sizes from 17 to 515 keys and on
  lib-manyproc's shape (``n = 14``, 17-key blocks);
* several sorts bound to one program skeleton run as one executor call
  versus one call each (``n = 6``, 2,048 keys, batches of 1, 2 and 8);
* the compiled tier on int32 images of its keys versus the same call on
  float64, on svc-stream's, lib-manyproc's and lib-bigblock's shapes;
* building a fresh plan's compiled program straight from the plan versus
  building and lowering its per-pair schedule objects, and binding a
  second plan to the first one's cached skeleton (``n = 10``, ``r = 5``
  and ``n = 14``; ``n = 8`` with ``--fast``);
* the memoized partition DFS versus its reference implementation at the
  hardest configuration the suite exercises (``n = 10``, ``r = 9``);
* a chaos campaign run serially versus fanned out over worker processes.

``--fast`` shrinks the workloads for CI smoke runs; the speedup *floors*
are only asserted where they are meaningful (full-size workload, enough
CPUs), but "compiled never slower than loop" holds in every mode.  The
multi-core campaign floor is its own test: it records ``cpu_count`` and
its verdict in the bench JSON and **skips visibly** (never silently
passes) on hosts that cannot exhibit a parallel speedup.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.kernels.compiled as compiled
import repro.parallel as parallel
from repro.chaos.campaign import run_campaign
from repro.core.ftsort import fault_tolerant_sort, plan_partition
from repro.core.partition import _find_min_cuts_reference, find_min_cuts
from repro.core.schedule import build_ft_program, build_ft_schedule, lower_schedule
from repro.faults.model import FaultKind, FaultSet
from repro.parallel import effective_cpu_count
from repro.plancache import PLAN_CACHE
from repro.simulator.phases import PhaseMachine

SEED = 1992
N = 4
FAULTS_Q4 = [3, 9, 14]  # r = 3
CHAOS_JOBS = 4

#: Timings stashed by the campaign benchmark for the multicore floor gate
#: (a separate test so a host that cannot run the gate reports SKIPPED,
#: never a silent pass).
_campaign_timings: dict = {}


def _records(result) -> list:
    """Every phase record of a run, as comparable tuples."""
    return [
        (p.label, p.duration, p.comparisons, p.elements_sent,
         p.element_hops, p.messages)
        for p in result.machine.phases
    ]


def _no_op_observer(machine, record) -> None:
    """Attached only to route a ``compiled`` sort through the interpreter."""


def _best_of(fn, reps: int, setup=None) -> float:
    """Fastest of ``reps`` calls of ``fn``; ``setup`` runs untimed before each."""
    best = float("inf")
    for _ in range(reps):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestFtsortKernelSpeedup:
    def test_compiled_vs_loop_end_to_end(self, fast_mode, bench_json):
        m_keys = 4000 if fast_mode else 16000
        keys = np.random.default_rng(SEED).random(m_keys)

        results = {
            name: fault_tolerant_sort(keys, N, FAULTS_Q4, kernels=name)
            for name in ("compiled", "loop")
        }
        # Backend choice changes execution strategy only: identical bytes
        # out, identical simulated cost.
        np.testing.assert_array_equal(
            results["compiled"].sorted_keys, results["loop"].sorted_keys
        )
        np.testing.assert_array_equal(results["compiled"].sorted_keys, np.sort(keys))
        assert results["compiled"].elapsed == results["loop"].elapsed
        assert results["compiled"].output_order == results["loop"].output_order

        t_loop = _best_of(
            lambda: fault_tolerant_sort(keys, N, FAULTS_Q4, kernels="loop"),
            reps=1 if fast_mode else 2,
        )
        t_compiled = _best_of(
            lambda: fault_tolerant_sort(keys, N, FAULTS_Q4, kernels="compiled"),
            reps=3 if fast_mode else 5,
        )
        speedup = t_loop / t_compiled
        print(f"\nftsort n={N} M={m_keys} r={len(FAULTS_Q4)}: "
              f"loop {t_loop * 1e3:.1f}ms vs compiled {t_compiled * 1e3:.1f}ms "
              f"({speedup:.1f}x)")
        bench_json("kernels", "ftsort", {
            "n": N, "m_keys": m_keys, "faults": FAULTS_Q4,
            "loop_seconds": t_loop, "compiled_seconds": t_compiled,
            "speedup": speedup, "fast_mode": fast_mode,
        })
        assert t_compiled <= t_loop, (
            f"compiled backend slower than loop reference ({t_compiled:.4f}s vs "
            f"{t_loop:.4f}s)")
        if not fast_mode:
            assert speedup >= 5.0, f"expected >=5x at M={m_keys}, got {speedup:.2f}x"


class TestCompiledScheduleSpeedup:
    """The schedule executor versus the same kernels on the interpreter.

    The executor's win is eliminating the per-pair Python hot path
    (block dicts, charge calls, probe decisions), so the headline
    measurement runs where that path dominates: a big cube (many
    comparator pairs per substage) at ``M = 10^6`` keys.  A no-op phase
    observer routes the baseline through the per-pair interpreter, which
    runs the ``compiled`` backend's vectorized kernels.  Parity is
    asserted, not assumed — byte-identical sorted output and bit-identical
    simulated clock against the interpreter route at full size, and exact
    per-phase counter equality against the pure-Python ``loop`` reference
    at a size it can afford — and recorded as the ``parity`` flag CI
    validates.
    """

    def test_compiled_vs_interpreted_end_to_end(self, fast_mode, bench_json):
        n = 8 if fast_mode else 15
        m_keys = 100_000 if fast_mode else 1_000_000
        faults = [3, 9, 14, (1 << n) - 6]  # r = 4
        keys = np.random.default_rng(SEED).random(m_keys)

        def interpreted():
            return fault_tolerant_sort(keys, n, faults, kernels="compiled",
                                       observer=_no_op_observer)

        def compiled():
            return fault_tolerant_sort(keys, n, faults, kernels="compiled")

        base, fast = interpreted(), compiled()
        parity = (
            fast.sorted_keys.tobytes() == base.sorted_keys.tobytes()
            and fast.elapsed == base.elapsed
            and fast.output_order == base.output_order
        )
        # Exact counter parity against the loop reference, at a size the
        # per-pair interpreter can run in bench time.
        small = np.random.default_rng(SEED).random(2000)
        ref = {
            name: fault_tolerant_sort(small, 5, [3, 5, 16, 24], kernels=name)
            for name in ("loop", "compiled")
        }
        parity = (
            parity
            and ref["compiled"].sorted_keys.tobytes() == ref["loop"].sorted_keys.tobytes()
            and ref["compiled"].elapsed == ref["loop"].elapsed
            and _records(ref["compiled"]) == _records(ref["loop"])
        )

        t_interpreted = _best_of(interpreted, reps=1 if fast_mode else 2)
        t_compiled = _best_of(compiled, reps=3)
        speedup = t_interpreted / t_compiled
        print(f"\nftsort n={n} M={m_keys} r={len(faults)}: "
              f"interpreted {t_interpreted * 1e3:.1f}ms vs compiled "
              f"{t_compiled * 1e3:.1f}ms ({speedup:.1f}x)")
        bench_json("kernels", "compiled", {
            "n": n, "m_keys": m_keys, "faults": faults,
            "interpreted_seconds": t_interpreted, "compiled_seconds": t_compiled,
            "speedup": speedup, "parity": bool(parity),
            "fast_mode": fast_mode,
        })
        assert parity, "compiled tier diverged from the interpreter route"
        assert t_compiled <= t_interpreted, (
            f"schedule executor slower than the interpreter route "
            f"({t_compiled:.4f}s vs {t_interpreted:.4f}s)")
        if not fast_mode:
            assert speedup >= 10.0, (
                f"expected >=10x at n={n} M={m_keys}, got {speedup:.2f}x")


class TestCompiledSplitSpeedup:
    """Each substage's compare-splits cut across the usable cores.

    Runs the ROADMAP ledger point (``n = 10``, ``M = 10^6``, faults
    ``{3, 9}``) with the default kernel thread budget and with the budget
    held to 1, and asserts the two are identical in bytes, clock and phase
    records.  ``speedup`` is one-core over default wall time, best-of; CI's
    multi-core job gates it at full size.  On a one-CPU host both runs
    take the serial path and the speedup reads about 1.
    """

    def test_split_vs_one_core(self, fast_mode, bench_json, monkeypatch):
        n, faults = 10, [3, 9]
        # Half size still splits most substages in two.
        m_keys = 500_000 if fast_mode else 1_000_000
        keys = np.random.default_rng(SEED).random(m_keys)

        def run(threads):
            # ``None`` restores the default budget (every usable core).
            monkeypatch.setattr(parallel, "_kernel_threads", threads)
            return fault_tolerant_sort(keys, n, faults, kernels="compiled")

        split, serial = run(None), run(1)
        parity = (
            split.sorted_keys.tobytes() == serial.sorted_keys.tobytes()
            and split.elapsed == serial.elapsed
            and _records(split) == _records(serial)
        )
        reps = 3 if fast_mode else 5
        t_serial = _best_of(lambda: run(1), reps)
        t_split = _best_of(lambda: run(None), reps)
        speedup = t_serial / t_split
        cpus = effective_cpu_count()
        print(f"\ncompiled n={n} M={m_keys} r={len(faults)}: one core "
              f"{t_serial * 1e3:.1f}ms vs {cpus} cores {t_split * 1e3:.1f}ms "
              f"({speedup:.2f}x)")
        bench_json("kernels", "compiled_split", {
            "n": n, "m_keys": m_keys, "faults": faults,
            "serial_seconds": t_serial, "split_seconds": t_split,
            "speedup": speedup, "parity": bool(parity),
            "effective_cpu_count": cpus, "fast_mode": fast_mode,
        })
        assert parity, "splitting substages across cores changed the result"


class TestSmallBlockRegime:
    """Sorted rows against selection, the compiled tier's two compare-split
    regimes, across block sizes.

    Each row runs one shape with the regime bound
    (``_SORTED_ROWS_MAX_K``) forced to 0 (selection everywhere) and above
    the block (sorted rows everywhere), asserts the two identical in
    bytes, clock and phase records, and times both, best-of, alternating
    which runs first.  The rows are ``k`` of 17 to 515 on the n=10 plan
    with faults {3, 9, 100} (1,020 rows: svc-stream's plan, whose 2^19
    keys make 515-key blocks) and lib-manyproc's shape (n=14, faults
    {3, 9, 4100}, 2^18 keys in 16,380 rows of 17 keys), which is the
    headline.  ``speedup`` is selection over sorted-rows wall time;
    ``cutover_k`` is the bound the tier ships with.  Both sides run on
    float64 (the executor's encoder patched to decline), so the rows
    compare the regimes alone; :class:`TestNarrowKeys` times the int32
    image.  CI's multi-core job asserts the headline speedup at full
    size.
    """

    SHAPES = [(10, [3, 9, 100], 1020 * k) for k in (17, 35, 65, 129, 257, 515)]
    HEADLINE = (14, [3, 9, 4100], 1 << 18)
    SELECT, SORT = 0, 1 << 30  # the bound that forces each regime

    def test_sorted_rows_vs_selection(self, fast_mode, bench_json, monkeypatch):
        reps = 2 if fast_mode else 5
        cutover_k = compiled._SORTED_ROWS_MAX_K
        monkeypatch.setattr(compiled, "_key_image", lambda keys, size, sorted_rows: None)
        rows = []
        for n, faults, m_keys in self.SHAPES + [self.HEADLINE]:
            keys = np.random.default_rng(SEED).random(m_keys)

            def run(bound):
                monkeypatch.setattr(compiled, "_SORTED_ROWS_MAX_K", bound)
                return fault_tolerant_sort(keys, n, faults, kernels="compiled")

            select, by_sort = run(self.SELECT), run(self.SORT)
            parity = (
                select.sorted_keys.tobytes() == by_sort.sorted_keys.tobytes()
                and select.elapsed == by_sort.elapsed
                and _records(select) == _records(by_sort)
            )
            best = {self.SELECT: float("inf"), self.SORT: float("inf")}
            for rep in range(reps):
                for bound in ((self.SELECT, self.SORT) if rep % 2 == 0
                              else (self.SORT, self.SELECT)):
                    t0 = time.perf_counter()
                    run(bound)
                    best[bound] = min(best[bound], time.perf_counter() - t0)
            rows.append({
                "n": n, "faults": faults, "m_keys": m_keys,
                "k": select.block_size, "select_seconds": best[self.SELECT],
                "sort_seconds": best[self.SORT],
                "speedup": best[self.SELECT] / best[self.SORT], "parity": bool(parity),
            })
            print(f"\nn={n} k={select.block_size}: selection "
                  f"{best[self.SELECT] * 1e3:.1f}ms vs sorted rows "
                  f"{best[self.SORT] * 1e3:.1f}ms ({rows[-1]['speedup']:.2f}x)")
        head = rows[-1]
        bench_json("kernels", "small_block", {
            **head, "rows": rows, "cutover_k": cutover_k, "fast_mode": fast_mode,
        })
        assert all(row["parity"] for row in rows), (
            "the two compare-split regimes diverged")


class TestBatchedJobs:
    """Sorts whose programs are bound to one skeleton, one executor call
    for all of them versus one call each.

    The shape is the service benchmark's small jobs: 2,048 keys on Q6,
    fault sets drawn from a seeded catalog of 40 three-fault sets, all of
    which cut Q6 into four subcubes (m = 2), so every batch is one group
    of 35-key blocks.  The plan cache is warm on both sides, as it is in
    a serving process.
    """

    N, KEYS, CATALOG, SIZES = 6, 2048, 40, (1, 2, 8)

    def test_batched_vs_sequential(self, fast_mode, bench_json):
        from repro.core.ftsort import fault_tolerant_sort_batch

        rng = np.random.default_rng(SEED)
        catalog: list[tuple[int, ...]] = []
        while len(catalog) < self.CATALOG:
            faults = tuple(sorted(int(a) for a in
                                  rng.choice(1 << self.N, size=3, replace=False)))
            if faults not in catalog:
                catalog.append(faults)
        reps = 15 if fast_mode else 100
        rows = []
        for size in self.SIZES:
            requests = [(rng.integers(0, 10**6, self.KEYS).astype(float), self.N,
                         list(catalog[int(rng.integers(self.CATALOG))]))
                        for _ in range(size)]

            def sequential():
                return [fault_tolerant_sort(keys, n, faults) for keys, n, faults in requests]

            def batched():
                return fault_tolerant_sort_batch(requests)

            parity = all(
                one.sorted_keys.tobytes() == both.sorted_keys.tobytes()
                and one.elapsed == both.elapsed and _records(one) == _records(both)
                for one, both in zip(sequential(), batched()))
            best = {sequential: float("inf"), batched: float("inf")}
            for rep in range(reps):
                for fn in ((sequential, batched) if rep % 2 == 0 else (batched, sequential)):
                    t0 = time.perf_counter()
                    fn()
                    best[fn] = min(best[fn], time.perf_counter() - t0)
            rows.append({
                "jobs": size, "sequential_seconds": best[sequential],
                "batched_seconds": best[batched],
                "speedup": best[sequential] / best[batched], "parity": bool(parity),
                "fast_mode": fast_mode,
            })
            print(f"\n{size} jobs: sequential {best[sequential] / size * 1e3:.3f}ms vs "
                  f"batched {best[batched] / size * 1e3:.3f}ms per job "
                  f"({rows[-1]['speedup']:.2f}x)")
        bench_json("kernels", "batched_jobs", {
            "n": self.N, "keys": self.KEYS, "catalog": self.CATALOG,
            "rows": rows, "fast_mode": fast_mode,
        })
        assert all(row["parity"] for row in rows), (
            "a batched sort diverged from its own call")


class TestNarrowKeys:
    """The compiled tier on 32-bit keys against the same call on float64.

    Each row runs one shape with the executor's encoder
    (``compiled._key_image``) patched to decline, which keeps the call on
    float64, and as it ships, asserts the two identical in bytes, clock
    and phase records, and times both, best-of, alternating which runs
    first.  ``path`` is the key path the shipped call took.  The rows are
    svc-stream's shape (n=10, faults {3, 9, 100}, integer-valued keys:
    the int32 cast), the headline; lib-manyproc's (n=14, faults
    {3, 9, 4100}, uniform floats in 17-key blocks: dense ranks); and
    lib-bigblock's (n=6, faults {3, 9}, uniform floats in big blocks),
    which stays on float64.  CI's multi-core job asserts the headline
    speedup at full size.
    """

    SHAPES = (("svc-stream", 10, [3, 9, 100], 1 << 19, "ints"),
              ("lib-manyproc", 14, [3, 9, 4100], 1 << 18, "floats"),
              ("lib-bigblock", 6, [3, 9], 1 << 19, "floats"))
    FAST_SHAPES = (("svc-stream", 10, [3, 9, 100], 1 << 17, "ints"),
                   ("lib-manyproc", 12, [3, 9, 1028], 1 << 16, "floats"),
                   ("lib-bigblock", 6, [3, 9], 1 << 17, "floats"))

    def test_narrowed_vs_float64(self, fast_mode, bench_json, monkeypatch):
        reps = 3 if fast_mode else 5
        encode = compiled._key_image
        paths = []

        def spy(keys, size, sorted_rows):
            encoded = encode(keys, size, sorted_rows)
            paths.append("float64" if encoded is None
                         else "cast" if encoded[1] is None else "ranks")
            return encoded

        def run(narrow):
            monkeypatch.setattr(compiled, "_key_image",
                                spy if narrow else lambda keys, size, sorted_rows: None)
            return fault_tolerant_sort(keys, n, faults, kernels="compiled")

        rows = []
        for name, n, faults, m_keys, family in (self.FAST_SHAPES if fast_mode
                                                else self.SHAPES):
            rng = np.random.default_rng(SEED)
            keys = (rng.integers(0, 10**6, m_keys).astype(float) if family == "ints"
                    else rng.random(m_keys))
            wide = run(False)
            paths.clear()
            narrow = run(True)
            path = paths[0]
            parity = (
                wide.sorted_keys.tobytes() == narrow.sorted_keys.tobytes()
                and wide.elapsed == narrow.elapsed
                and _records(wide) == _records(narrow)
            )
            best = {False: float("inf"), True: float("inf")}
            for rep in range(reps):
                for narrowed in ((False, True) if rep % 2 == 0 else (True, False)):
                    t0 = time.perf_counter()
                    run(narrowed)
                    best[narrowed] = min(best[narrowed], time.perf_counter() - t0)
            rows.append({
                "shape": name, "n": n, "faults": faults, "m_keys": m_keys,
                "k": wide.block_size, "keys": family, "path": path,
                "float64_seconds": best[False], "narrowed_seconds": best[True],
                "speedup": best[False] / best[True], "parity": bool(parity),
            })
            print(f"\n{name} n={n} k={wide.block_size} ({path}): float64 "
                  f"{best[False] * 1e3:.1f}ms vs narrowed {best[True] * 1e3:.1f}ms "
                  f"({rows[-1]['speedup']:.2f}x)")
        head = rows[0]
        bench_json("kernels", "narrow_keys", {
            **head, "rows": rows, "fast_mode": fast_mode,
        })
        assert all(row["parity"] for row in rows), "the int32 image changed a result"
        assert [row["path"] for row in rows] == ["cast", "ranks", "float64"]


def _same_program(a, b) -> bool:
    """Whether two compiled programs are equal, array for array."""
    def fields(sub):
        return (sub.label, sub.kind, sub.uniform_hops,
                *((arr.dtype.str, arr.tobytes()) for arr in (sub.a_rows, sub.b_rows, sub.hops)))

    return (a.output_order == b.output_order
            and [fields(x) for x in a.substages] == [fields(y) for y in b.substages])


class TestColdProgramBuild:
    """Building a plan's compiled program: object route, direct, bound.

    The object route is what the compiled tier did before it built
    programs from the plan: a :class:`~repro.core.schedule.SortSchedule`
    of one frozen pair per comparator, lowered by
    :func:`~repro.core.schedule.lower_schedule`.  The direct route is
    :func:`~repro.core.schedule.build_ft_program` on an empty plan cache:
    the ``(n, m)`` skeleton plus the plan's binding.  ``bind_seconds``
    times the same builder on a second plan with the same ``(n, m)`` (the
    first one's faults XOR 1), whose skeleton is already cached: what a
    never-seen fault set costs a long-running process.  All get the hop
    metric the compiled tier passes (``None`` for partial faults, where no
    route detours).  Builds only, no sort; best-of per route.  The
    headline keys are the first size (``n = 8`` in fast mode, ``n = 10``
    with ``r = 5`` at full size); ``sizes`` holds every size and
    ``parity`` says the object route's arrays equalled the builder's, for
    both plans, at all of them.
    """

    def test_object_route_vs_direct(self, fast_mode, bench_json):
        pick = np.random.default_rng(SEED)
        sizes = ([(8, sorted(pick.choice(1 << 8, 5, replace=False).tolist()), 5, 5)]
                 if fast_mode else
                 [(10, sorted(pick.choice(1 << 10, 5, replace=False).tolist()), 3, 5),
                  (14, [3, 9, 4100], 2, 3)])
        rows = []
        for n, faults, object_reps, direct_reps in sizes:
            plans = []
            for fault_set in (FaultSet(n, faults, kind=FaultKind.PARTIAL),
                              FaultSet(n, [a ^ 1 for a in faults], kind=FaultKind.PARTIAL)):
                _, sel = plan_partition(n, fault_set)
                machine = PhaseMachine(n, faults=fault_set)
                plans.append((sel, machine.hops if fault_set.may_detour else None,
                              machine.hops))
            (sel, hops, metric), (twin, twin_hops, twin_metric) = plans
            assert twin.m == sel.m and twin.dead_of_subcube != sel.dead_of_subcube

            def by_objects():
                return lower_schedule(build_ft_schedule(sel), metric)

            def direct():
                return build_ft_program(sel, hops)

            def bind():
                return build_ft_program(twin, twin_hops)

            parity = (_same_program(by_objects(), direct())
                      and _same_program(lower_schedule(build_ft_schedule(twin), twin_metric),
                                        bind()))
            t_object = _best_of(by_objects, object_reps)
            t_direct = _best_of(direct, direct_reps, setup=PLAN_CACHE.clear)
            direct()  # the skeleton the twin binds to
            t_bind = _best_of(bind, direct_reps)
            rows.append({
                "n": n, "faults": faults, "m": sel.m, "s": sel.s,
                "object_seconds": t_object, "direct_seconds": t_direct,
                "bind_seconds": t_bind,
                "speedup": t_object / t_direct, "parity": bool(parity),
            })
            print(f"\ncold program n={n} r={len(faults)}: objects "
                  f"{t_object * 1e3:.1f}ms vs direct {t_direct * 1e3:.2f}ms "
                  f"({t_object / t_direct:.1f}x); bound to a cached skeleton "
                  f"{t_bind * 1e3:.2f}ms")
        head = rows[0]
        bench_json("kernels", "cold_program", {
            "n": head["n"], "faults": head["faults"],
            "object_seconds": head["object_seconds"],
            "direct_seconds": head["direct_seconds"],
            "bind_seconds": head["bind_seconds"],
            "speedup": head["speedup"],
            "parity": all(row["parity"] for row in rows),
            "sizes": rows, "fast_mode": fast_mode,
        })
        assert all(row["parity"] for row in rows), "direct build diverged from the object route"
        assert head["direct_seconds"] <= head["object_seconds"], (
            "direct program build slower than the object route")


class TestPartitionMemoSpeedup:
    def test_memoized_vs_reference_q10(self, fast_mode, bench_json):
        n, r = 10, 9
        faults = sorted(
            np.random.default_rng(SEED).choice(1 << n, size=r, replace=False).tolist()
        )
        new = find_min_cuts(n, faults)
        ref = _find_min_cuts_reference(n, faults)
        assert (new.mincut, new.cutting_set) == (ref.mincut, ref.cutting_set)

        reps = 3 if fast_mode else 5
        t_ref = _best_of(lambda: _find_min_cuts_reference(n, faults), reps)
        t_new = _best_of(lambda: find_min_cuts(n, faults), reps)
        speedup = t_ref / t_new
        print(f"\nfind_min_cuts n={n} r={r}: reference {t_ref * 1e3:.2f}ms vs "
              f"memoized {t_new * 1e3:.2f}ms ({speedup:.1f}x)")
        bench_json("kernels", "partition", {
            "n": n, "r": r, "faults": faults,
            "reference_seconds": t_ref, "memoized_seconds": t_new,
            "speedup": speedup, "fast_mode": fast_mode,
        })
        assert t_new <= t_ref, "memoized partition DFS slower than reference"


class TestParallelCampaignSpeedup:
    def test_serial_vs_workers(self, fast_mode, bench_json):
        count = 24 if fast_mode else 200
        cpus = effective_cpu_count()

        serial = run_campaign(count=count, seed=SEED, shrink_failures=False, jobs=1)
        fanned = run_campaign(count=count, seed=SEED, shrink_failures=False,
                              jobs=CHAOS_JOBS)
        # Best-of-2 timings: single-shot campaign runs carry ~10% wall-clock
        # noise on small hosts, which is the same order as the regression
        # threshold below.
        t_serial = _best_of(
            lambda: run_campaign(count=count, seed=SEED, shrink_failures=False,
                                 jobs=1), reps=2)
        t_jobs = _best_of(
            lambda: run_campaign(count=count, seed=SEED, shrink_failures=False,
                                 jobs=CHAOS_JOBS), reps=2)

        assert serial.all_passed and fanned.all_passed
        assert (serial.scenarios, serial.passed, serial.recoveries,
                serial.retries, serial.mean_detect_latency) == (
            fanned.scenarios, fanned.passed, fanned.recoveries,
            fanned.retries, fanned.mean_detect_latency)

        speedup = t_serial / t_jobs
        # ``regression`` is the headline guard: parallel must never lose to
        # serial.  On hosts where the pool cannot win (1 CPU, tiny batch)
        # run_tasks auto-degrades to the serial path, so the flag holds
        # there too (modulo 5% timing noise).
        regression = speedup < 0.95
        print(f"\nchaos campaign x{count}: serial {t_serial:.2f}s vs "
              f"jobs={CHAOS_JOBS} {t_jobs:.2f}s ({speedup:.2f}x, "
              f"{cpus} CPUs{', REGRESSION' if regression else ''})")
        bench_json("kernels", "chaos_campaign", {
            "scenarios": count, "jobs": CHAOS_JOBS,
            "cpu_count": os.cpu_count() or 1, "effective_cpu_count": cpus,
            "serial_seconds": t_serial, "parallel_seconds": t_jobs,
            "speedup": speedup, "regression": regression,
            "fast_mode": fast_mode,
        })
        assert not regression, (
            f"parallel campaign slower than serial ({speedup:.2f}x) — "
            "auto-serial degradation failed")
        _campaign_timings.update(speedup=speedup, fast_mode=fast_mode)

    def test_multicore_speedup_floor(self, fast_mode, bench_json):
        """The >=1.5x wall-clock floor, gated on actually having cores.

        A 1-CPU host *cannot* show a parallel speedup (run_tasks rightly
        auto-degrades to serial there), so asserting the floor would fail
        for reasons that have nothing to do with the code, and skipping it
        silently inside another test would hide that the floor was never
        checked.  This test records the *effective* CPU count — the
        affinity/cgroup-aware :func:`repro.parallel.effective_cpu_count`,
        since a many-core host pinned to one core cannot show a speedup
        either — and its own verdict in BENCH_kernels.json, then SKIPS —
        visibly — when the gate cannot run, and enforces the floor when it
        can.
        """
        cpus = effective_cpu_count()
        gate = {"cpu_count": os.cpu_count() or 1,
                "effective_cpu_count": cpus, "floor": 1.5,
                "asserted": False, "fast_mode": fast_mode}
        if "speedup" not in _campaign_timings:
            gate["skip_reason"] = "campaign benchmark was not run"
            bench_json("kernels", "multicore_floor", gate)
            pytest.skip(gate["skip_reason"])
        gate["speedup"] = _campaign_timings["speedup"]
        if cpus < 2:
            gate["skip_reason"] = f"requires >= 2 CPUs, host has {cpus}"
            bench_json("kernels", "multicore_floor", gate)
            pytest.skip(f"multicore speedup floor not checkable: "
                        f"{gate['skip_reason']}")
        if fast_mode:
            gate["skip_reason"] = "fast mode: smoke workload too small for " \
                                  "a stable wall-clock floor"
            bench_json("kernels", "multicore_floor", gate)
            pytest.skip(gate["skip_reason"])
        gate["asserted"] = True
        bench_json("kernels", "multicore_floor", gate)
        assert gate["speedup"] >= 1.5, (
            f"expected >=1.5x on {cpus} CPUs, got {gate['speedup']:.2f}x")


def test_record_environment(bench_json, fast_mode):
    bench_json("kernels", "cpu_count", os.cpu_count() or 1)
    bench_json("kernels", "effective_cpu_count", effective_cpu_count())
    bench_json("kernels", "fast_mode", fast_mode)
    bench_json("kernels", "seed", SEED)
