"""Tests for repro.core.schedule — static oblivious sort schedules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.ftsort import plan_partition
from repro.core.schedule import (
    CompiledSchedule,
    CxPair,
    SortSchedule,
    Substage,
    build_ft_program,
    build_ft_schedule,
    build_plain_program,
    build_plain_schedule,
    lower_schedule,
)
from repro.cube.address import hamming_distance
from repro.faults.inject import random_faulty_processors
from repro.faults.linkplan import absorb_link_faults
from repro.faults.model import FaultKind, FaultSet
from repro.plancache import PLAN_CACHE
from repro.plancache.cache import cached_program_skeleton
from repro.simulator.phases import PhaseMachine
from tests.conftest import moved_fault_set

PAPER_FAULTS = [3, 5, 16, 24]


class TestSubstage:
    def test_disjoint_pairs_enforced(self):
        with pytest.raises(ValueError):
            Substage("x", "cx", (CxPair(0, 1, True), CxPair(1, 2, True)))

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            Substage("x", "cx", (CxPair(3, 3, True),))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Substage("x", "teleport", ())

    def test_participants(self):
        s = Substage("x", "cx", (CxPair(0, 1, True), CxPair(4, 6, False)))
        assert s.participants() == {0, 1, 4, 6}

    def test_cx_pair_requires_real_orientation(self):
        # A cx comparator must say which side keeps the minima; the mirror
        # sentinel ``None`` is not a valid orientation for a comparison.
        with pytest.raises(ValueError, match="keep_min"):
            Substage("x", "cx", (CxPair(0, 1, None),))

    def test_mirror_pair_rejects_orientation(self):
        # Mirror swaps move data without comparing: an orientation flag on a
        # mirror pair would silently leak into comparison accounting.
        with pytest.raises(ValueError, match="keep_min"):
            Substage("x", "mirror", (CxPair(0, 1, True),))
        ok = Substage("x", "mirror", (CxPair(0, 1, None),))
        assert ok.pairs[0].keep_min is None


class TestPlainSchedule:
    def test_fault_free_structure(self):
        sch = build_plain_schedule(3)
        assert sch.workers == 8
        assert len(sch.substages) == 6  # 3*(3+1)/2
        assert sch.output_order == tuple(range(8))

    def test_comparator_count(self):
        # Each substage pairs all 2^n nodes: 2^(n-1) comparators.
        sch = build_plain_schedule(4)
        assert sch.comparator_count() == 10 * 8

    def test_single_fault_excludes_dead(self):
        sch = build_plain_schedule(3, faulty=5)
        assert 5 not in sch.output_order
        assert sch.workers == 7
        for s in sch.substages:
            assert 5 not in s.participants()

    def test_single_fault_reindexing(self):
        sch = build_plain_schedule(2, faulty=2)
        # logical order: l XOR 2 for l in 1..3
        assert sch.output_order == (3, 0, 1)

    def test_q0(self):
        sch = build_plain_schedule(0)
        assert sch.workers == 1 and sch.substages == ()

    def test_q0_with_fault_rejected(self):
        with pytest.raises(ValueError):
            build_plain_schedule(0, faulty=0)


class TestFtSchedule:
    def test_paper_scenario_structure(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        assert sch.workers == 24
        # dead processors appear nowhere
        dead = set(sel.dead_of_subcube)
        for s in sch.substages:
            assert not dead & s.participants()

    def test_output_order_subcube_major(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        split = sel.split
        vs = [split.v_of(a) for a in sch.output_order]
        assert vs == sorted(vs)

    def test_substage_kinds(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        kinds = {s.kind for s in sch.substages}
        assert kinds <= {"cx", "mirror"}
        assert any(s.kind == "mirror" for s in sch.substages)

    def test_inter_substage_count(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        inter = [s for s in sch.substages if s.label.startswith("inter")]
        m = sel.m
        assert len(inter) == m * (m + 1) // 2

    def test_inter_pairs_same_reindexed_address(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        split = sel.split
        dead_w = [split.w_of(d) for d in sel.dead_of_subcube]
        for s in sch.substages:
            if not s.label.startswith("inter"):
                continue
            for pr in s.pairs:
                va, vb = split.v_of(pr.low), split.v_of(pr.high)
                rho_a = split.w_of(pr.low) ^ dead_w[va]
                rho_b = split.w_of(pr.high) ^ dead_w[vb]
                assert rho_a == rho_b != 0

    def test_random_plans_build(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 7))
            r = int(rng.integers(2, n))
            faults = random_faulty_processors(n, r, rng)
            _, sel = plan_partition(n, list(faults))
            sch = build_ft_schedule(sel)
            assert sch.workers == sel.working_processors
            assert isinstance(sch, SortSchedule)


class TestHonestAccounting:
    """Mirror traffic is counted as traffic, never as comparisons."""

    def test_plain_schedule_has_no_mirror_pairs(self):
        assert build_plain_schedule(4).mirror_pair_count() == 0

    def test_ft_schedule_counts_mirror_pairs(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        mirror = sum(len(s.pairs) for s in sch.substages if s.kind == "mirror")
        assert mirror > 0
        assert sch.mirror_pair_count() == mirror
        # comparator_count covers cx pairs only — mirror swaps compare nothing.
        cx = sum(len(s.pairs) for s in sch.substages if s.kind == "cx")
        assert sch.comparator_count() == cx

    def test_worst_case_elements(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        k = 10
        cx = sch.comparator_count()
        mirror = sch.mirror_pair_count()
        # Per cx pair: 2 probe keys + 2 full blocks; per mirror pair: 2 blocks.
        assert sch.worst_case_elements(k) == cx * (2 + 2 * k) + mirror * 2 * k
        assert sch.worst_case_elements(0) == 0


class TestLowering:
    def test_plain_lowering_shape(self):
        sch = build_plain_schedule(3)
        prog = lower_schedule(sch)
        assert isinstance(prog, CompiledSchedule)
        assert prog.n == 3
        assert prog.workers == 8
        assert prog.output_order == sch.output_order
        assert len(prog.substages) == len(sch.substages)
        for sub, csub in zip(sch.substages, prog.substages):
            assert csub.label == sub.label
            assert csub.kind == sub.kind
            assert len(csub.a_rows) == len(csub.b_rows) == len(csub.hops) == len(sub.pairs)
            assert not csub.a_rows.flags.writeable
            assert (csub.hops == 1).all()  # plain substages are neighbor links

    def test_cx_rows_resolve_orientation(self):
        # a_rows is always the min-keeper, regardless of pair orientation.
        sch = SortSchedule(
            n=1,
            output_order=(0, 1),
            substages=(
                Substage("fw", "cx", (CxPair(0, 1, True),)),
                Substage("bw", "cx", (CxPair(0, 1, False),)),
            ),
        )
        prog = lower_schedule(sch)
        fw, bw = prog.substages
        assert (fw.a_rows.tolist(), fw.b_rows.tolist()) == ([0], [1])
        assert (bw.a_rows.tolist(), bw.b_rows.tolist()) == ([1], [0])

    def test_ft_lowering_uses_hop_oracle(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        sch = build_ft_schedule(sel)
        prog = lower_schedule(sch, hops_of=hamming_distance)
        row = {addr: t for t, addr in enumerate(sch.output_order)}
        for sub, csub in zip(sch.substages, prog.substages):
            for i, pair in enumerate(sub.pairs):
                rows = {int(csub.a_rows[i]), int(csub.b_rows[i])}
                assert rows == {row[pair.low], row[pair.high]}
                if sub.uniform_hops is None:
                    assert int(csub.hops[i]) == hamming_distance(pair.low, pair.high)
                else:
                    assert int(csub.hops[i]) == sub.uniform_hops


def assert_same_program(direct: CompiledSchedule, reference: CompiledSchedule) -> None:
    """Field for field: labels, kinds, array dtypes and values, uniform
    hops, output order."""
    assert direct.n == reference.n
    assert direct.output_order == reference.output_order
    assert all(type(a) is int for a in direct.output_order)
    assert [(s.label, s.kind) for s in direct.substages] == [
        (s.label, s.kind) for s in reference.substages
    ]
    for got, want in zip(direct.substages, reference.substages):
        for field in ("pairs", "a_rows", "b_rows", "hops"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g.dtype, g.shape) == (w.dtype, w.shape), (got.label, field)
            np.testing.assert_array_equal(g, w, err_msg=f"{got.label} {field}")
            assert not g.flags.writeable
        assert got.uniform_hops == want.uniform_hops, got.label
        assert type(got.uniform_hops) is type(want.uniform_hops), got.label


def _ft_case(fault_set: FaultSet, full_sort: bool = False, metric: bool = True):
    """``(direct, reference)`` programs for a fault set's plan, with the
    machine's hop metric (detouring under total and link faults) or, with
    ``metric=False``, none (Hamming distances)."""
    n = fault_set.n
    _, sel = plan_partition(n, fault_set)
    hops = PhaseMachine(n, faults=fault_set).hops if metric else None
    return (build_ft_program(sel, hops, full_sort=full_sort),
            lower_schedule(build_ft_schedule(sel, full_sort=full_sort), hops))


@st.composite
def _processor_faults(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    r = draw(st.integers(min_value=2, max_value=max(2, n - 1)))
    procs = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          min_size=r, max_size=r, unique=True))
    kind = draw(st.sampled_from([FaultKind.PARTIAL, FaultKind.TOTAL]))
    return FaultSet(n, procs, kind=kind)


@st.composite
def _link_faults(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    procs = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          max_size=n - 2, unique=True))
    ends = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1),
                  st.integers(min_value=0, max_value=n - 1)),
        min_size=1, max_size=3, unique_by=lambda e: (e[0] & ~(1 << e[1]), e[1])))
    links = [(a, a ^ (1 << d)) for a, d in ends]
    kind = draw(st.sampled_from([FaultKind.PARTIAL, FaultKind.TOTAL]))
    return absorb_link_faults(FaultSet(n, procs, kind=kind, links=links))


class TestDirectBuilders:
    """``build_*_program`` equal the object route, array for array."""

    @settings(max_examples=60, deadline=None)
    @given(fault_set=_processor_faults(), full_sort=st.booleans(), metric=st.booleans(),
           data=st.data())
    def test_ft_program_matches_object_route(self, fault_set, full_sort, metric, data):
        assume(fault_set.satisfies_paper_model())
        twin = moved_fault_set(fault_set, data.draw(st.integers(min_value=1)),
                               data.draw(st.permutations(range(fault_set.n))))
        for plan in (fault_set, twin):
            assert_same_program(*_ft_case(plan, full_sort, metric))

    @settings(max_examples=30, deadline=None)
    @example(fault_set=absorb_link_faults(
        FaultSet(4, [3], kind=FaultKind.PARTIAL, links=[(9, 13), (0, 1)])), full_sort=False,
        metric=True, shift=5)
    @given(fault_set=_link_faults(), full_sort=st.booleans(), metric=st.booleans(),
           shift=st.integers(min_value=1, max_value=7))
    def test_ft_program_matches_object_route_with_link_faults(self, fault_set, full_sort,
                                                              metric, shift):
        assume(fault_set.r >= 2 and fault_set.satisfies_paper_model())
        n = fault_set.n
        for plan in (fault_set, moved_fault_set(fault_set, shift)):
            _, sel = plan_partition(n, plan)
            hops = PhaseMachine(n, faults=plan).hops if metric else None
            try:
                reference = lower_schedule(build_ft_schedule(sel, full_sort=full_sort), hops)
            except ValueError:  # the faults cut some pair off from each other
                assume(False)
            assert_same_program(build_ft_program(sel, hops, full_sort=full_sort), reference)

    def test_plans_with_equal_m_share_one_skeleton(self, monkeypatch):
        """Two Q10 plans with the same m: the second program is the first
        one's substages, except that its inter-subcube substages are
        charged anew over the skeleton's own pair arrays."""
        monkeypatch.setattr(PLAN_CACHE, "enabled", True)
        first_sel, second_sel = (plan_partition(10, FaultSet(10, faults))[1]
                                 for faults in ([3, 9, 300], [17, 40, 1000]))
        assert first_sel.m == second_sel.m
        first, second = (build_ft_program(sel) for sel in (first_sel, second_sel))
        skeleton = cached_program_skeleton(("ft", 10, first_sel.m, False),
                                           lambda: pytest.fail("skeleton not cached"))
        assert first.output_order != second.output_order
        inter = 0
        for a, b, template in zip(first.substages, second.substages, skeleton.substages):
            if a.label.startswith("inter"):
                inter += 1
                assert b is not a and b.hops is not a.hops
                assert b.pairs is template.pairs
            else:
                assert b is a is template
        assert inter == first_sel.m * (first_sel.m + 1) // 2

    def test_detouring_plans_share_the_skeletons_mirrors(self, monkeypatch):
        """Under total faults routes may detour, yet no mirror pair does:
        both programs keep every mirror substage of the skeleton as is,
        and still equal the object route charged through the metric."""
        monkeypatch.setattr(PLAN_CACHE, "enabled", True)
        plans = [FaultSet(6, faults, kind=FaultKind.TOTAL)
                 for faults in ([3, 9, 40], [5, 17, 34])]
        sels = [plan_partition(6, plan)[1] for plan in plans]
        assert sels[0].m == sels[1].m
        programs = [build_ft_program(sel, PhaseMachine(6, faults=plan).hops)
                    for plan, sel in zip(plans, sels)]
        skeleton = cached_program_skeleton(("ft", 6, sels[0].m, False),
                                           lambda: pytest.fail("skeleton not cached"))
        mirrors = 0
        for program in programs:
            for got, template in zip(program.substages, skeleton.substages):
                if got.kind == "mirror":
                    mirrors += 1
                    assert got is template
            assert program.skeleton is skeleton
        assert mirrors
        for plan in plans:
            assert_same_program(*_ft_case(plan))

    @pytest.mark.parametrize("n", range(9))
    def test_plain_program_matches_object_route(self, n):
        for faulty in [None, *range(1 << n)]:
            if n == 0 and faulty is not None:
                continue
            assert_same_program(build_plain_program(n, faulty),
                                lower_schedule(build_plain_schedule(n, faulty)))

    def test_plain_program_rejects_what_the_schedule_rejects(self):
        with pytest.raises(ValueError):
            build_plain_program(0, faulty=0)
        with pytest.raises(ValueError):
            build_plain_program(3, faulty=8)

    def test_n14_manyproc_plan(self):
        """The 16,380-row plan of the benchmark's many-processor workload."""
        direct, reference = _ft_case(FaultSet(14, [3, 9, 4100], kind=FaultKind.PARTIAL))
        assert_same_program(direct, reference)

    def test_one_dimensional_subcubes_keep_empty_mirrors(self):
        """s = 1: a mirror substage has no pairs and is still emitted."""
        fault_set = FaultSet(2, [0, 1], kind=FaultKind.PARTIAL)
        direct, reference = _ft_case(fault_set)
        assert_same_program(direct, reference)
        mirrors = [s for s in direct.substages if s.kind == "mirror"]
        assert mirrors and all(s.a_rows.size == 0 for s in mirrors)
        assert all(s.uniform_hops is None for s in mirrors)

    def test_total_fault_detours_are_per_pair(self):
        """A route around a totally faulty node is longer than the Hamming
        distance for some pairs of one inter-subcube substage only."""
        fault_set = FaultSet(5, [1, 2], kind=FaultKind.TOTAL)
        direct, reference = _ft_case(fault_set)
        assert_same_program(direct, reference)
        _, sel = plan_partition(5, fault_set)
        hamming = build_ft_program(sel)
        detoured = [
            (got.label, got.hops.tolist(), ecube.hops.tolist())
            for got, ecube in zip(direct.substages, hamming.substages)
            if got.label.startswith("inter") and got.uniform_hops is None
        ]
        assert detoured
        assert any(hops != ecube for _, hops, ecube in detoured)

    def test_without_metric_hops_are_hamming_distances(self):
        _, sel = plan_partition(5, PAPER_FAULTS)
        assert_same_program(build_ft_program(sel),
                            lower_schedule(build_ft_schedule(sel), hamming_distance))


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s memory."""
    while arr.base is not None:
        arr = arr.base
    return arr


def _programs_of_every_builder():
    """``(builder, program)`` for each of the three builders, on plans with
    and without mirror substages (empty ones at s = 1 included)."""
    for n, faults in ((5, PAPER_FAULTS), (4, [3, 9, 14]), (2, [0, 1])):
        _, sel = plan_partition(n, faults)
        for full_sort in (False, True):
            yield "build_ft_program", build_ft_program(sel, full_sort=full_sort)
            yield "lower_schedule", lower_schedule(build_ft_schedule(sel, full_sort=full_sort))
    for faulty in (None, 5):
        yield "build_plain_program", build_plain_program(4, faulty)
        yield "lower_schedule", lower_schedule(build_plain_schedule(4, faulty))


class TestPairStorage:
    """Each substage stores its pairs once, as one read-only ``(P, 2)``
    intp array whose columns are ``a_rows`` and ``b_rows``."""

    def test_every_builder_stores_one_pair_array(self):
        builders = set()
        for builder, program in _programs_of_every_builder():
            builders.add(builder)
            for sub in program.substages:
                pairs = sub.pairs
                assert pairs.dtype == np.intp and pairs.shape == (len(pairs), 2), sub.label
                assert pairs.flags.c_contiguous and not pairs.flags.writeable, sub.label
                for column, side in ((sub.a_rows, 0), (sub.b_rows, 1)):
                    assert _owner(column) is _owner(pairs), (builder, sub.label)
                    assert np.shares_memory(column, pairs) or not pairs.size
                    np.testing.assert_array_equal(column, pairs[:, side])
                # The pair array owns no more than its own pairs: no second
                # copy of the rows hides behind it.
                assert _owner(pairs).nbytes == pairs.nbytes, (builder, sub.label)
        assert builders == {"build_ft_program", "build_plain_program", "lower_schedule"}

    def test_bound_programs_share_the_skeletons_pair_arrays(self, monkeypatch):
        """Two plans bound to one skeleton: every substage of both
        programs, the charged inter-subcube ones included, holds the
        skeleton's own pair array."""
        monkeypatch.setattr(PLAN_CACHE, "enabled", True)
        sels = [plan_partition(8, FaultSet(8, faults))[1]
                for faults in ([3, 9, 200], [17, 40, 100])]
        assert sels[0].m == sels[1].m
        programs = [build_ft_program(sel) for sel in sels]
        skeleton = cached_program_skeleton(("ft", 8, sels[0].m, False),
                                           lambda: pytest.fail("skeleton not cached"))
        assert {sub.kind for sub in skeleton.substages} == {"cx", "mirror"}
        for program in programs:
            assert program.skeleton is skeleton
            for got, template in zip(program.substages, skeleton.substages, strict=True):
                assert got.pairs is template.pairs, got.label
