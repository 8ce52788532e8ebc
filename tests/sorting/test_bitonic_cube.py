"""Tests for repro.sorting.bitonic_cube — blockwise bitonic sort on nodes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine
from repro.sorting.bitonic_cube import (
    block_bitonic_sort,
    exchange_pair,
    substage_pairs,
)


def make_machine(n: int) -> PhaseMachine:
    return PhaseMachine(n, params=MachineParams.unit())


def load_blocks(machine, addrs, blocks):
    for a, b in zip(addrs, blocks):
        machine.set_block(a, np.sort(np.asarray(b, dtype=float)))


def gathered(machine, addrs, skip=()):
    out = [machine.get_block(a) for i, a in enumerate(addrs) if i not in skip]
    return np.concatenate(out) if out else np.empty(0)


class TestSubstagePairs:
    def test_stage0(self):
        pairs = substage_pairs(2, 0, 0)
        assert pairs == [(0, 1, True), (2, 3, False)]

    def test_final_stage_all_ascending(self):
        pairs = substage_pairs(3, 2, 1)
        assert all(keep_min for _, _, keep_min in pairs)

    def test_descending_inverts(self):
        asc = substage_pairs(3, 1, 0)
        desc = substage_pairs(3, 1, 0, descending=True)
        assert [(a, b) for a, b, _ in asc] == [(a, b) for a, b, _ in desc]
        assert all(x[2] != y[2] for x, y in zip(asc, desc))

    def test_invalid_substage(self):
        with pytest.raises(ValueError):
            substage_pairs(2, 2, 0)
        with pytest.raises(ValueError):
            substage_pairs(2, 0, 1)


class TestExchangePair:
    def test_splits_between_nodes(self):
        m = make_machine(1)
        m.set_block(0, np.array([2.0, 4.0]))
        m.set_block(1, np.array([1.0, 3.0]))
        with m.phase("x"):
            exchange_pair(m, 0, 1, low_keeps_min=True)
        assert m.get_block(0).tolist() == [1.0, 2.0]
        assert m.get_block(1).tolist() == [3.0, 4.0]

    def test_keep_max_direction(self):
        m = make_machine(1)
        m.set_block(0, np.array([1.0]))
        m.set_block(1, np.array([2.0]))
        with m.phase("x"):
            exchange_pair(m, 0, 1, low_keeps_min=False)
        assert m.get_block(0).tolist() == [2.0]

    def test_dead_partner_skips_all_charges(self):
        m = make_machine(1)
        m.set_block(0, np.array([5.0, 1.0]))
        with m.phase("x") as rec:
            exchange_pair(m, 0, 1, low_keeps_min=True)
        assert rec.elements_sent == 0 and rec.comparisons == 0
        assert m.get_block(0).tolist() == [5.0, 1.0]
        assert m.elapsed == 0.0

    def test_probe_skip_charges_only_probe(self):
        m = make_machine(1)
        m.set_block(0, np.array([1.0, 2.0]))
        m.set_block(1, np.array([3.0, 4.0]))
        with m.phase("x") as rec:
            exchange_pair(m, 0, 1, low_keeps_min=True)
        assert rec.elements_sent == 2  # one probe key each way
        assert rec.comparisons == 2

    def test_no_probe_full_exchange(self):
        m = make_machine(1)
        m.set_block(0, np.array([1.0, 2.0]))
        m.set_block(1, np.array([3.0, 4.0]))
        with m.phase("x") as rec:
            exchange_pair(m, 0, 1, low_keeps_min=True, probe=False)
        assert rec.elements_sent == 4  # k/2 + k/2 each way

    def test_probe_miss_pays_probe_plus_payload(self):
        m = make_machine(1)
        m.set_block(0, np.array([3.0, 4.0]))
        m.set_block(1, np.array([1.0, 2.0]))
        with m.phase("x") as rec:
            exchange_pair(m, 0, 1, low_keeps_min=True)
        assert rec.elements_sent == 2 + 4


class TestBlockBitonicSort:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_sorts_fault_free(self, q, rng):
        m = make_machine(q)
        addrs = list(range(1 << q))
        blocks = [rng.integers(0, 100, size=4) for _ in addrs]
        load_blocks(m, addrs, blocks)
        block_bitonic_sort(m, addrs)
        out = gathered(m, addrs)
        np.testing.assert_array_equal(out, np.sort(np.concatenate(blocks).astype(float)))

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_sorts_with_dead_zero(self, q, rng):
        m = make_machine(q)
        addrs = list(range(1 << q))
        blocks = [np.empty(0)] + [rng.integers(0, 50, size=3) for _ in addrs[1:]]
        load_blocks(m, addrs, blocks)
        block_bitonic_sort(m, addrs, dead_logical={0})
        out = gathered(m, addrs, skip={0})
        expected = np.sort(np.concatenate([np.asarray(b, dtype=float) for b in blocks[1:]]))
        np.testing.assert_array_equal(out, expected)

    def test_descending_reverses_chunk_ranks(self, rng):
        q = 2
        m = make_machine(q)
        addrs = list(range(4))
        blocks = [rng.integers(0, 100, size=2) for _ in addrs]
        load_blocks(m, addrs, blocks)
        block_bitonic_sort(m, addrs, descending=True)
        flat = np.sort(np.concatenate(blocks).astype(float))
        # Descending: logical position l holds rank (P-1-l)'s chunk.
        for l in range(4):
            np.testing.assert_array_equal(
                m.get_block(addrs[l]), flat[(3 - l) * 2 : (4 - l) * 2]
            )

    def test_dead_elsewhere_rejected(self, rng):
        m = make_machine(2)
        addrs = list(range(4))
        load_blocks(m, addrs, [[1], [2], [], [4]])
        m.set_block(2, np.empty(0))
        with pytest.raises(ValueError):
            block_bitonic_sort(m, addrs, dead_logical={2})

    def test_unequal_blocks_rejected(self):
        m = make_machine(1)
        m.set_block(0, np.array([1.0]))
        m.set_block(1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            block_bitonic_sort(m, [0, 1])

    def test_non_pow2_rejected(self):
        m = make_machine(2)
        with pytest.raises(ValueError):
            block_bitonic_sort(m, [0, 1, 2])

    def test_xor_relabeling_sorts_in_logical_order(self, rng):
        # Reindexing by XOR mask: sorted in logical order, not physical.
        q, mask = 3, 5
        m = make_machine(q)
        addrs = [l ^ mask for l in range(8)]
        blocks = [rng.integers(0, 100, size=2) for _ in addrs]
        load_blocks(m, addrs, blocks)
        block_bitonic_sort(m, addrs)
        out = gathered(m, addrs)
        np.testing.assert_array_equal(out, np.sort(np.concatenate(blocks).astype(float)))

    def test_phase_count_is_q_q_plus_1_over_2(self, rng):
        q = 3
        m = make_machine(q)
        addrs = list(range(8))
        load_blocks(m, addrs, [rng.integers(0, 9, size=2) for _ in addrs])
        block_bitonic_sort(m, addrs)
        assert len(m.phases) == q * (q + 1) // 2

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sorts_any_arrangement_property(self, data):
        q = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 5))
        blocks = [
            sorted(data.draw(st.lists(st.integers(0, 20), min_size=k, max_size=k)))
            for _ in range(1 << q)
        ]
        m = make_machine(q)
        addrs = list(range(1 << q))
        load_blocks(m, addrs, blocks)
        block_bitonic_sort(m, addrs)
        out = gathered(m, addrs)
        assert out.tolist() == sorted(x for b in blocks for x in b)
