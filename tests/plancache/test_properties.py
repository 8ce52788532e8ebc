"""Property-based tests for the plan cache (hypothesis).

* **Replay fidelity** — a plan served *through* the cache must equal a
  cold ``find_min_cuts`` + ``select_cut_sequence`` run exactly: same
  mincut, same Ψ (order included), same selection, and — end to end —
  the same sorted bytes and simulated cost on both kernel backends.  The
  cache is warmed with an automorphic image of the fault set first: the
  image poses the same planning problem up to relabeling, so a key that
  confused the two would serve the wrong plan.
* **Exact keys** — each real fault set is planned once and then hit;
  automorphic images are separate entries and never share a plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.core.partition as partition_mod
from repro.core.ftsort import fault_tolerant_sort
from repro.faults.model import FaultSet
from repro.core.partition import find_min_cuts
from repro.core.selection import select_cut_sequence
from repro.plancache import PLAN_CACHE, plan_with_cache


@st.composite
def _orbit_case(draw):
    """A fault set plus a random automorphism of its cube."""
    n = draw(st.integers(min_value=3, max_value=6))
    r = draw(st.integers(min_value=2, max_value=min(4, n)))
    procs = tuple(sorted(draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                 min_size=r, max_size=r, unique=True)
    )))
    translate = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    perm = tuple(draw(st.permutations(tuple(range(n)))))
    return n, procs, translate, perm


def _image(procs, translate: int, perm) -> tuple[int, ...]:
    """The fault set under ``u -> relabel(u ^ translate)``, where bit ``d``
    moves to bit ``perm[d]``: an automorphism of the cube."""
    return tuple(sorted(
        sum((((p ^ translate) >> d) & 1) << target for d, target in enumerate(perm))
        for p in procs))


class TestReplayFidelity:
    @given(_orbit_case())
    @settings(max_examples=80, deadline=None)
    def test_cached_plan_equals_cold_plan(self, case):
        n, procs, translate, perm = case
        cold_part = find_min_cuts(n, procs)
        cold_sel = select_cut_sequence(cold_part)

        PLAN_CACHE.configure(enabled=True)
        PLAN_CACHE.clear(reset_counters=True)
        plan_with_cache(n, _image(procs, translate, perm))
        # The first call stores the plan, the second is served from it.
        for _ in range(2):
            part, sel = plan_with_cache(n, procs)
            assert part == cold_part
            assert sel == cold_sel

    @given(_orbit_case())
    @settings(max_examples=12, deadline=None)
    def test_sorted_output_identical_on_both_kernels(self, case):
        n, procs, translate, perm = case
        # The planner handles any fault set, but the end-to-end sort
        # enforces the paper's model (r <= n-1, nobody fully surrounded).
        assume(FaultSet(n, procs).satisfies_paper_model())
        keys = np.random.default_rng(hash(case) & 0xFFFF).random(3 << n)
        for kernels in ("compiled", "loop"):
            PLAN_CACHE.configure(enabled=False)
            PLAN_CACHE.clear(reset_counters=True)
            cold = fault_tolerant_sort(keys, n, list(procs), kernels=kernels)
            PLAN_CACHE.configure(enabled=True)
            PLAN_CACHE.clear(reset_counters=True)
            plan_with_cache(n, _image(procs, translate, perm))
            plan_with_cache(n, procs)
            warm = fault_tolerant_sort(keys, n, list(procs), kernels=kernels)
            assert warm.sorted_keys.tobytes() == cold.sorted_keys.tobytes()
            assert warm.elapsed == cold.elapsed
            assert warm.output_order == cold.output_order


class TestExactKeys:
    N = 5
    FAULTS = (3, 12, 21)
    IMAGE = tuple(sorted(p ^ 9 for p in FAULTS))  # same orbit, other addresses

    @pytest.fixture
    def planned(self, monkeypatch):
        """Fault sets ``find_min_cuts`` is called on, after planning both."""
        seen = []

        def spy(n, procs):
            seen.append(tuple(procs))
            return find_min_cuts(n, procs)

        monkeypatch.setattr(partition_mod, "find_min_cuts", spy)
        PLAN_CACHE.configure(enabled=True)
        PLAN_CACHE.clear(reset_counters=True)
        for procs in (self.FAULTS, self.IMAGE):
            plan_with_cache(self.N, procs)
        return seen

    def test_orbit_image_is_planned_under_its_own_key(self, planned):
        stats = PLAN_CACHE.stats()
        assert stats["misses"]["plan"] == 2
        assert stats["misses"]["canon"] == 0
        assert sum(1 for section, _ in PLAN_CACHE._store if section == "plan") == 2
        assert planned == [self.FAULTS, self.IMAGE]

    def test_exact_repeats_hit_without_planning(self, planned):
        for procs in (self.FAULTS, self.IMAGE):
            plan_with_cache(self.N, procs)
        stats = PLAN_CACHE.stats()
        assert stats["hits"]["plan"] == 2
        assert stats["misses"]["plan"] == 2
        assert planned == [self.FAULTS, self.IMAGE]


@pytest.fixture(autouse=True)
def _restore_cache():
    yield
    PLAN_CACHE.configure(enabled=True)
    PLAN_CACHE.clear(reset_counters=True)
