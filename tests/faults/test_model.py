"""Tests for repro.faults.model — the permanent-fault model."""

from __future__ import annotations

import pytest

from repro.faults.model import FaultKind, FaultSet


class TestConstruction:
    def test_processors_sorted(self):
        fs = FaultSet(4, [9, 3, 0])
        assert fs.processors == (0, 3, 9)
        assert fs.r == len(fs) == 3

    def test_duplicate_processor_rejected(self):
        with pytest.raises(ValueError, match="listed twice"):
            FaultSet(4, [9, 3, 3, 9, 0])

    def test_duplicate_byzantine_rejected(self):
        with pytest.raises(ValueError, match="listed twice"):
            FaultSet(4, [1], byzantine=[5, 5])

    def test_contradictory_kinds_rejected(self):
        # A processor cannot be both crashed (silent) and byzantine.
        with pytest.raises(ValueError, match="both faulty .* and byzantine"):
            FaultSet(4, [3, 5], byzantine=[5, 9])

    def test_byzantine_processors_are_faulty(self):
        fs = FaultSet(4, [3], byzantine=[9, 5])
        assert fs.processors == (3, 5, 9)  # union view for planners/routers
        assert fs.byzantine == (5, 9)
        assert fs.crash == (3,)
        assert fs.is_faulty(5) and fs.is_byzantine(5)
        assert fs.is_faulty(3) and not fs.is_byzantine(3)
        assert fs.r == 3

    def test_byzantine_in_equality_and_hash(self):
        plain = FaultSet(4, [3, 5])
        hybrid = FaultSet(4, [3], byzantine=[5])
        assert plain != hybrid
        assert hash(plain) != hash(hybrid)
        assert hybrid == FaultSet(4, [3], byzantine=[5])

    def test_out_of_range_processor_rejected(self):
        with pytest.raises(ValueError):
            FaultSet(3, [8])

    def test_kind_must_be_enum(self):
        with pytest.raises(TypeError):
            FaultSet(3, [1], kind="total")

    def test_link_faults_canonicalized(self):
        # Endpoint order does not matter; storage is (min_endpoint, dim).
        fs1 = FaultSet(3, links=[(5, 7)])
        fs2 = FaultSet(3, links=[(7, 5)])
        assert fs1.links == fs2.links == ((5, 1),)

    def test_link_faults_reject_non_neighbors(self):
        with pytest.raises(ValueError):
            FaultSet(3, links=[(0, 3)])

    def test_membership_and_iteration(self):
        fs = FaultSet(4, [2, 11])
        assert 2 in fs and 11 in fs and 3 not in fs
        assert list(fs) == [2, 11]

    def test_equality_and_hash(self):
        a = FaultSet(4, [1, 2])
        b = FaultSet(4, [2, 1])
        c = FaultSet(4, [1, 2], kind=FaultKind.PARTIAL)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestLinkUsability:
    def test_total_fault_kills_incident_links(self):
        fs = FaultSet(3, [0], kind=FaultKind.TOTAL)
        assert fs.is_link_faulty(0, 1)
        assert fs.is_link_faulty(4, 0)
        assert not fs.is_link_faulty(2, 3)

    def test_partial_fault_keeps_links(self):
        fs = FaultSet(3, [0], kind=FaultKind.PARTIAL)
        assert not fs.is_link_faulty(0, 1)

    def test_injected_link_fault_dead_in_both_kinds(self):
        for kind in FaultKind:
            fs = FaultSet(3, links=[(2, 3)], kind=kind)
            assert fs.is_link_faulty(2, 3)
            assert fs.is_link_faulty(3, 2)

    def test_can_route_through(self):
        total = FaultSet(3, [5], kind=FaultKind.TOTAL)
        partial = FaultSet(3, [5], kind=FaultKind.PARTIAL)
        assert not total.can_route_through(5)
        assert partial.can_route_through(5)
        assert total.can_route_through(4)


class TestStructure:
    def test_fault_free_processors(self):
        fs = FaultSet(3, [0, 7])
        assert fs.fault_free_processors() == [1, 2, 3, 4, 5, 6]

    def test_paper_model_satisfied_when_r_small(self):
        assert FaultSet(4, [0, 1, 2]).satisfies_paper_model()

    def test_paper_model_with_surrounded_processor(self):
        # Node 0's neighbors in Q_2 are {1, 2}; with both faulty, node 0 is
        # isolated and r = 2 = n, violating the model.
        fs = FaultSet(2, [1, 2])
        assert fs.has_isolated_normal_processor()
        assert not fs.satisfies_paper_model()

    def test_paper_model_r_equal_n_but_no_isolation(self):
        # Q_3 with 3 faults that do not surround anyone: model's closing
        # remark says the partition still applies.
        fs = FaultSet(3, [0, 3, 7])
        assert fs.r == 3
        assert not fs.has_isolated_normal_processor()
        assert fs.satisfies_paper_model()

    def test_connected_under_n_minus_1_total_faults(self, rng):
        n = 4
        for _ in range(30):
            picks = rng.choice(1 << n, size=n - 1, replace=False).tolist()
            assert FaultSet(n, picks, kind=FaultKind.TOTAL).is_connected()

    def test_disconnection_detected(self):
        # Q_2: faulting 1 and 2 cuts 3 off from 0.
        fs = FaultSet(2, [1, 2], kind=FaultKind.TOTAL)
        assert not fs.is_connected()

    def test_partial_always_connected(self):
        fs = FaultSet(2, [1, 2], kind=FaultKind.PARTIAL)
        assert fs.is_connected()

    @pytest.mark.parametrize("fs,detours", [
        (FaultSet(4, [1, 6], kind=FaultKind.PARTIAL), False),
        (FaultSet(4, [1, 6], kind=FaultKind.TOTAL), True),
        (FaultSet(4, [], kind=FaultKind.PARTIAL, links=[(0, 1)]), True),
        (FaultSet(4, [], kind=FaultKind.TOTAL), False),
    ], ids=["partial", "total", "links", "total-r0"])
    def test_may_detour(self, fs, detours):
        from repro.simulator.router import Router

        assert fs.may_detour is detours
        assert Router(fs).strategy == ("adaptive" if detours else "ecube")

    def test_dimension_mismatch_not_allowed_in_sort(self):
        from repro.core.ftsort import fault_tolerant_sort

        with pytest.raises(ValueError):
            fault_tolerant_sort([1.0], 3, FaultSet(4, [1]))
