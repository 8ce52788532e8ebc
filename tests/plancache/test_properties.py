"""Property-based tests for the plan cache (hypothesis).

Two invariants carry the whole tentpole:

* **Canonical-form invariance** — ``canonical_form`` must be constant on
  automorphism orbits: applying any hypercube automorphism (an XOR
  translation composed with a dimension permutation) to a fault set must
  not change its canonical form.  This is what makes the cache key sound.
* **Replay fidelity** — a plan served *through* the cache (including the
  hit path, where the stored canonical plan was computed for a different
  member of the orbit) must equal a cold ``find_min_cuts`` +
  ``select_cut_sequence`` run exactly: same mincut, same Ψ (order
  included), same selection, and — end to end — the same sorted bytes and
  simulated cost on both kernel backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.ftsort import fault_tolerant_sort
from repro.faults.model import FaultSet
from repro.core.partition import find_min_cuts
from repro.core.selection import select_cut_sequence
from repro.cube.address import permute_bits
from repro.plancache import PLAN_CACHE, canonical_form, plan_with_cache


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


def _image(n: int, procs, translate: int, perm) -> tuple[int, ...]:
    return tuple(sorted(permute_bits(p ^ translate, perm) for p in procs))


class TestCanonicalInvariance:
    @given(_orbit_case())
    @settings(max_examples=120, deadline=None)
    def test_canonical_form_constant_on_orbit(self, case):
        n, procs, translate, perm = case
        form, _ = canonical_form(n, procs)
        form_img, _ = canonical_form(n, _image(n, procs, translate, perm))
        assert form == form_img, (
            f"n={n} procs={procs} ^{translate} perm={perm}: "
            f"{form} != {form_img}"
        )

    @given(_orbit_case())
    @settings(max_examples=60, deadline=None)
    def test_transform_maps_faults_onto_canonical_form(self, case):
        n, procs, _, _ = case
        form, tf = canonical_form(n, procs)
        assert tuple(sorted(tf.apply(p) for p in procs)) == form
        assert tuple(sorted(tf.invert(c) for c in form)) == procs


class TestReplayFidelity:
    @given(_orbit_case())
    @settings(max_examples=80, deadline=None)
    def test_cached_plan_equals_cold_plan(self, case):
        n, procs, translate, perm = case
        cold_part = find_min_cuts(n, procs)
        cold_sel = select_cut_sequence(cold_part)

        PLAN_CACHE.configure(enabled=True)
        PLAN_CACHE.clear(reset_counters=True)
        # Warm the canonical entry with a *different* orbit member, so the
        # query below exercises the hit/replay path, not just a pass-through.
        plan_with_cache(n, _image(n, procs, translate, perm))
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
            plan_with_cache(n, _image(n, procs, translate, perm))
            warm = fault_tolerant_sort(keys, n, list(procs), kernels=kernels)
            assert warm.sorted_keys.tobytes() == cold.sorted_keys.tobytes()
            assert warm.elapsed == cold.elapsed
            assert warm.output_order == cold.output_order


@pytest.fixture(autouse=True)
def _restore_cache():
    yield
    PLAN_CACHE.configure(enabled=True)
    PLAN_CACHE.clear(reset_counters=True)
