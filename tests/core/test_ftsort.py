"""Tests for repro.core.ftsort — the full fault-tolerant sorting algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ftsort import fault_tolerant_sort, plan_partition
from repro.core.spmd_sort import spmd_fault_tolerant_sort
from repro.faults.inject import random_faulty_processors
from repro.faults.model import FaultKind, FaultSet
from repro.simulator.params import MachineParams

from tests.conftest import assert_sorted_output

PAPER_FAULTS = [3, 5, 16, 24]


class TestDispatch:
    def test_zero_faults_plain_sort(self, rng):
        keys = rng.random(40)
        res = fault_tolerant_sort(keys, 3, [])
        assert_sorted_output(res, keys)
        assert res.partition is None and res.selection is None
        assert res.working_processors == 8

    def test_one_fault_single_fault_path(self, rng):
        keys = rng.random(40)
        res = fault_tolerant_sort(keys, 3, [5])
        assert_sorted_output(res, keys)
        assert res.partition is not None and res.partition.mincut == 0
        assert res.selection is None
        assert res.working_processors == 7

    def test_multi_fault_partition_path(self, rng):
        keys = rng.random(40)
        res = fault_tolerant_sort(keys, 4, [1, 2, 12])
        assert_sorted_output(res, keys)
        assert res.selection is not None
        assert res.partition.mincut == res.selection.m

    def test_too_many_faults_rejected(self):
        # Q_2 with faults 1, 2 isolates node 0: violates the model.
        with pytest.raises(ValueError):
            fault_tolerant_sort([1.0], 2, [1, 2])

    def test_r_equal_n_allowed_when_no_isolation(self, rng):
        # Section 2.2's closing remark: r >= n is fine if nobody is
        # surrounded.
        keys = rng.random(30)
        res = fault_tolerant_sort(keys, 3, [0, 3, 7])
        assert_sorted_output(res, keys)

    def test_bad_step8_mode_rejected(self):
        with pytest.raises(ValueError):
            fault_tolerant_sort([1.0], 3, [1, 2], step8="magic")

    @pytest.mark.parametrize("kernels", ["loop", "compiled"])
    @pytest.mark.parametrize("faults", [[], [5], [3, 9, 14]], ids=["r0", "r1", "r3"])
    def test_observer_sees_every_phase(self, rng, kernels, faults):
        seen = []
        keys = rng.random(60)
        res = fault_tolerant_sort(keys, 4, faults, kernels=kernels,
                                  observer=lambda machine, rec: seen.append(rec))
        assert_sorted_output(res, keys)
        assert seen and seen == res.machine.phases


class TestNonFiniteKeys:
    """Every sort documents finite keys; a NaN must be refused up front,
    not surface later as a broken sort."""

    @staticmethod
    def _keys_with_nans(m):
        keys = np.linspace(0.0, 1.0, m)
        keys[[m // 7, m // 2]] = np.nan
        return keys

    @pytest.mark.parametrize("kernels", ["loop", "compiled"])
    def test_nan_keys_rejected(self, kernels):
        with pytest.raises(ValueError, match="finite"):
            fault_tolerant_sort(self._keys_with_nans(1000), 5, [3, 9], kernels=kernels)

    def test_nan_keys_rejected_by_spmd(self):
        with pytest.raises(ValueError, match="finite"):
            spmd_fault_tolerant_sort(self._keys_with_nans(200), 4, [3, 9])


class TestPaperScenario:
    """The running example of the paper: Q_5 with faults {3, 5, 16, 24}."""

    def test_figure6_scenario_47_keys(self, rng):
        # 47 keys over N' = 24 working processors: ceil -> 2 per processor,
        # 6 per subcube, exactly the Fig. 6 walkthrough.
        keys = rng.integers(0, 1000, size=47).astype(float)
        res = fault_tolerant_sort(keys, 5, PAPER_FAULTS)
        assert_sorted_output(res, keys)
        assert res.block_size == 2
        assert res.selection.cut_dims == (0, 1, 3)
        assert res.selection.dangling_processors == (18, 25, 26, 27)
        assert len(res.output_order) == 24

    def test_output_order_subcube_major(self, rng):
        res = fault_tolerant_sort(rng.random(48), 5, PAPER_FAULTS)
        split = res.selection.split
        vs = [split.v_of(a) for a in res.output_order]
        assert vs == sorted(vs)

    def test_dead_processors_hold_nothing(self, rng):
        res = fault_tolerant_sort(rng.random(48), 5, PAPER_FAULTS)
        for dead in res.selection.dead_of_subcube:
            assert res.machine.get_block(dead).size == 0

    def test_blocks_form_global_sorted_sequence(self, rng):
        keys = rng.random(96)
        res = fault_tolerant_sort(keys, 5, PAPER_FAULTS)
        expected = np.sort(keys)
        k = res.block_size
        for i, addr in enumerate(res.output_order):
            np.testing.assert_array_equal(
                res.machine.get_block(addr), expected[i * k : (i + 1) * k]
            )

    def test_forced_cut_dims(self, rng):
        keys = rng.random(48)
        res = fault_tolerant_sort(keys, 5, PAPER_FAULTS, cut_dims=(2, 3, 4))
        assert_sorted_output(res, keys)
        assert res.selection.cut_dims == (2, 3, 4)

    def test_forced_cut_dims_must_be_minimal(self):
        with pytest.raises(ValueError):
            fault_tolerant_sort([1.0], 5, PAPER_FAULTS, cut_dims=(0, 1, 2, 3))


class TestCorrectnessSweep:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_faults_and_keys(self, n, rng):
        for r in range(0, n):
            for _ in range(4):
                faults = random_faulty_processors(n, r, rng)
                m_keys = int(rng.integers(1, 200))
                keys = rng.integers(0, 10**6, size=m_keys).astype(float)
                res = fault_tolerant_sort(keys, n, list(faults))
                assert_sorted_output(res, keys)

    def test_both_step8_modes_agree(self, rng):
        keys = rng.random(60)
        a = fault_tolerant_sort(keys, 4, [1, 6, 11], step8="two-merge")
        b = fault_tolerant_sort(keys, 4, [1, 6, 11], step8="full-sort")
        np.testing.assert_array_equal(a.sorted_keys, b.sorted_keys)

    def test_two_merge_faster_on_large_subcubes(self, rng):
        # 2s substages beat s(s+1)/2 once s > 3; with s = 5 and sizeable
        # blocks the two-merge Step 8 must win clearly.
        keys = rng.random(32 * 400)
        a = fault_tolerant_sort(keys, 6, [0, 63], step8="two-merge")
        b = fault_tolerant_sort(keys, 6, [0, 63], step8="full-sort")
        assert a.elapsed < b.elapsed

    def test_duplicate_keys(self, rng):
        keys = rng.integers(0, 4, size=100).astype(float)
        res = fault_tolerant_sort(keys, 4, [0, 5, 10])
        assert_sorted_output(res, keys)

    def test_tiny_inputs(self):
        for m in (1, 2, 3):
            keys = list(range(m, 0, -1))
            res = fault_tolerant_sort(keys, 4, [2, 9])
            assert res.sorted_keys.tolist() == sorted(float(k) for k in keys)

    def test_empty_input(self):
        res = fault_tolerant_sort([], 4, [2, 9])
        assert res.sorted_keys.size == 0

    def test_already_sorted_input(self, rng):
        keys = np.sort(rng.random(80))
        res = fault_tolerant_sort(keys, 4, [3, 12])
        assert_sorted_output(res, keys)

    def test_fault_set_object_accepted(self, rng):
        keys = rng.random(30)
        fs = FaultSet(4, [1, 6], kind=FaultKind.PARTIAL)
        res = fault_tolerant_sort(keys, 4, fs)
        assert_sorted_output(res, keys)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sort_property(self, data):
        n = data.draw(st.integers(3, 5))
        r = data.draw(st.integers(2, n - 1))
        faults = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=r, max_size=r, unique=True)
        )
        keys = data.draw(st.lists(st.integers(-999, 999), min_size=1, max_size=120))
        res = fault_tolerant_sort(keys, n, faults)
        assert res.sorted_keys.tolist() == sorted(float(k) for k in keys)


class TestFaultKinds:
    def test_total_faults_cost_at_least_partial(self, rng):
        # Section 4: total faults force detours, so execution time grows.
        keys = rng.random(2048)
        p = MachineParams.ncube7()
        faults = [0, 9, 20]
        partial = fault_tolerant_sort(keys, 5, faults, params=p, fault_kind=FaultKind.PARTIAL)
        total = fault_tolerant_sort(keys, 5, faults, params=p, fault_kind=FaultKind.TOTAL)
        assert_sorted_output(total, keys)
        assert total.elapsed >= partial.elapsed

    def test_total_fault_correctness_sweep(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 6))
            r = int(rng.integers(2, n))
            faults = random_faulty_processors(n, r, rng)
            keys = rng.random(int(rng.integers(1, 150)))
            res = fault_tolerant_sort(keys, n, list(faults), fault_kind=FaultKind.TOTAL)
            assert_sorted_output(res, keys)


class TestPlanPartition:
    def test_returns_both_artifacts(self):
        part, sel = plan_partition(5, PAPER_FAULTS)
        assert part.mincut == 3
        assert sel.cut_dims in part.cutting_set

    def test_override_must_be_in_psi(self):
        with pytest.raises(ValueError):
            plan_partition(5, PAPER_FAULTS, cut_dims=(0, 1, 2))

    def test_override_respected(self):
        _, sel = plan_partition(5, PAPER_FAULTS, cut_dims=(1, 3, 4))
        assert sel.cut_dims == (1, 3, 4)


class TestCostAccounting:
    def test_elapsed_equals_phase_sum(self, rng):
        res = fault_tolerant_sort(rng.random(64), 5, PAPER_FAULTS)
        assert res.elapsed == pytest.approx(sum(p.duration for p in res.machine.phases))

    def test_inter_subcube_hops_reflect_reindex_distance(self, rng):
        # With the paper's faults, dead-w differ across some neighboring
        # subcubes, so some inter-phase transfers take > 1 hop.
        res = fault_tolerant_sort(
            rng.random(256), 5, PAPER_FAULTS, params=MachineParams.unit()
        )
        inter = [p for p in res.machine.phases if p.label.startswith("inter")]
        assert any(p.element_hops > p.elements_sent for p in inter)

    def test_intra_phases_single_hop(self, rng):
        res = fault_tolerant_sort(
            rng.random(256), 5, PAPER_FAULTS, params=MachineParams.unit()
        )
        intra = [p for p in res.machine.phases if p.label.startswith("intra")]
        assert all(p.element_hops == p.elements_sent for p in intra)

    def test_more_faults_generally_cost_more(self, rng):
        keys = rng.random(8192)
        p = MachineParams.ncube7()
        t1 = fault_tolerant_sort(keys, 5, [7], params=p).elapsed
        t3 = fault_tolerant_sort(keys, 5, [7, 9, 30], params=p).elapsed
        assert t3 > t1


class TestBatch:
    """``fault_tolerant_sort_batch``: result ``i`` is request ``i``'s own
    ``fault_tolerant_sort``, in every field."""

    REQUESTS = [(6, [3, 17, 40], 2048), (6, [5, 9, 60], 2048), (6, [1, 2, 4], 1000),
                (6, [7], 2048), (6, [], 2048), (6, [3, 9, 14, 30], 2048),
                (5, PAPER_FAULTS, 120), (6, [0, 33], 2048), (6, [6, 18, 40], 2048),
                (5, [1, 2], 0)]

    def _requests(self, rng):
        return [(rng.integers(0, 10**6, size=m).astype(float), n, faults)
                for n, faults, m in self.REQUESTS]

    @pytest.mark.parametrize("kernels", ["compiled", "loop"])
    def test_results_equal_single_sorts(self, rng, kernels):
        from repro.core.ftsort import fault_tolerant_sort_batch

        requests = self._requests(rng)
        batch = fault_tolerant_sort_batch(requests, kernels=kernels)
        assert len(batch) == len(requests)
        for (keys, n, faults), got in zip(requests, batch):
            want = fault_tolerant_sort(keys, n, faults, kernels=kernels)
            assert got.sorted_keys.tobytes() == want.sorted_keys.tobytes()
            assert (got.elapsed, got.output_order, got.block_size) == (
                want.elapsed, want.output_order, want.block_size)
            assert got.machine.phases == want.machine.phases
            assert (got.partition, got.selection) == (want.partition, want.selection)

    def test_one_executor_call_per_skeleton_and_block_size(self, rng, monkeypatch):
        """The 2,048-key requests on Q6 with m = 2 share one call; every
        other plan, block size or cube runs alone."""
        import repro.kernels.compiled as compiled
        from repro.core.ftsort import fault_tolerant_sort_batch

        calls = []
        real = compiled.run_schedule_compiled

        def spy(runs, exact_counts=False):
            calls.append(len(runs))
            return real(runs, exact_counts=exact_counts)

        monkeypatch.setattr(compiled, "run_schedule_compiled", spy)
        fault_tolerant_sort_batch(self._requests(rng))
        groups: dict = {}
        for n, faults, m in self.REQUESTS:
            cuts = plan_partition(n, faults)[1].m if len(faults) > 1 else -len(faults)
            workers = (1 << n) - (1 << cuts if cuts > 0 else -cuts)
            key = (n, cuts, -(-m // workers))
            groups[key] = groups.get(key, 0) + 1
        assert max(groups.values()) == 3
        assert sorted(calls) == sorted(groups.values())
