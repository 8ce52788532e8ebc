"""Tests for repro.host.session — full distribute-sort-collect sessions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spmd_sort import spmd_fault_tolerant_sort
from repro.faults.inject import random_faulty_processors
from repro.faults.model import FaultKind, FaultSet
from repro.host import sort_session
from repro.obs import Tracer

from tests.conftest import assert_sorted_output


class TestSortSession:
    def test_sorts_fault_free(self, rng):
        keys = rng.integers(0, 500, size=45).astype(float)
        s = sort_session(keys, 3, [])
        assert_sorted_output(s, keys)

    def test_sorts_with_faults(self, rng):
        keys = rng.integers(0, 500, size=60).astype(float)
        s = sort_session(keys, 4, [2, 9, 12])
        assert_sorted_output(s, keys)

    def test_paper_scenario(self, rng):
        keys = rng.integers(0, 1000, size=47).astype(float)
        s = sort_session(keys, 5, [3, 5, 16, 24])
        assert_sorted_output(s, keys)

    def test_total_faults(self, rng):
        keys = rng.integers(0, 500, size=30).astype(float)
        s = sort_session(keys, 4, [1, 6], fault_kind=FaultKind.TOTAL)
        assert_sorted_output(s, keys)

    def test_segment_times_positive_and_sum(self, rng):
        keys = rng.integers(0, 500, size=100).astype(float)
        s = sort_session(keys, 4, [3])
        assert s.distribution_time > 0
        assert s.sort_time > 0
        assert s.collection_time > 0
        assert s.total_time == pytest.approx(
            s.distribution_time + s.sort_time + s.collection_time
        )

    def test_default_host_is_lowest_worker(self, rng):
        s = sort_session(rng.random(20), 3, [0])
        assert s.host == min(s.schedule.output_order)

    def test_explicit_host(self, rng):
        keys = rng.random(24)
        s = sort_session(keys, 3, [0], host=7)
        assert s.host == 7
        assert_sorted_output(s, keys)

    def test_non_working_host_rejected(self):
        with pytest.raises(ValueError):
            sort_session([1.0], 3, [0], host=0)

    def test_sort_segment_matches_pure_spmd_sort(self, rng):
        # The sort segment must produce the same result as the
        # distribution-free SPMD sort.
        keys = rng.integers(0, 500, size=50).astype(float)
        faults = [1, 6]
        s = sort_session(keys, 4, faults)
        pure = spmd_fault_tolerant_sort(keys, 4, faults)
        np.testing.assert_array_equal(s.sorted_keys, pure.sorted_keys)

    def test_sort_counters_match_pure_spmd_sort(self, rng):
        # The paper's plan has Step-8 mirror swaps: the session counts
        # them (and their messages) as the SPMD engine does.
        keys = rng.random(240)
        faults = [3, 5, 16, 24]
        tracers = Tracer(), Tracer()
        sort_session(keys, 5, faults, obs=tracers[0])
        spmd_fault_tolerant_sort(keys, 5, faults, obs=tracers[1])
        session, pure = (
            {name: c.value for name, c in t.metrics.counters.items()
             if name.startswith("sort.")}
            for t in tracers
        )
        assert pure["sort.mirror.pairs"] > 0
        assert session == pure

    def test_distribution_scales_with_keys(self, rng):
        small = sort_session(rng.random(24), 4, [3]).distribution_time
        large = sort_session(rng.random(240), 4, [3]).distribution_time
        assert large > small

    def test_random_sweep(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            r = int(rng.integers(0, n))
            faults = list(random_faulty_processors(n, r, rng))
            keys = rng.integers(0, 100, size=int(rng.integers(1, 50))).astype(float)
            s = sort_session(keys, n, faults)
            assert_sorted_output(s, keys)

    def test_dangling_processors_relay(self, rng):
        # With the paper's faults, dangling processors hold no keys but
        # must relay scatter/gather traffic: they appear in the tree.
        keys = rng.random(30)
        faults = [3, 5, 16, 24]
        s = sort_session(keys, 5, faults)
        fs = FaultSet(5, faults)
        tree_members = set(fs.fault_free_processors())
        workers = set(s.schedule.output_order)
        assert workers < tree_members  # dangling ranks participate too
