"""Admission bounds, round-robin fairness, and batch gathering."""

import pytest

from repro.service.protocol import JobSpec
from repro.service.queue import FairQueue, QueueFull, QueuedJob


def _job(tenant: str, i: int, *, kind: str = "sort", n: int = 5,
         faults=(3, 5)) -> QueuedJob:
    spec = JobSpec.from_dict(
        {"kind": kind, "n": n, "faults": list(faults), "seed": i}
        if kind != "chaos" else {"kind": kind, "index": i})
    return QueuedJob(job_id=f"{tenant}{i}", tenant=tenant, spec=spec)


class TestAdmission:
    def test_global_bound(self):
        q = FairQueue(max_queued=3, max_queued_per_tenant=3)
        for i in range(3):
            q.put(_job("a", i))
        with pytest.raises(QueueFull) as exc:
            q.put(_job("b", 0))
        assert exc.value.scope == "global"
        assert len(q) == 3

    def test_per_tenant_bound_protects_other_tenants(self):
        q = FairQueue(max_queued=100, max_queued_per_tenant=2)
        q.put(_job("hog", 0))
        q.put(_job("hog", 1))
        with pytest.raises(QueueFull) as exc:
            q.put(_job("hog", 2))
        assert exc.value.scope == "tenant"
        # The other tenant still has its share of the global bound.
        q.put(_job("polite", 0))
        assert q.tenant_depths() == {"hog": 2, "polite": 1}

    def test_depth_tracks_put_and_pop(self):
        q = FairQueue()
        for i in range(4):
            q.put(_job("a", i, kind="chaos"))
        q.pop_batch(1)
        assert len(q) == 3


class TestFairness:
    def test_round_robin_across_tenants_not_fifo(self):
        # Tenant "hog" enqueues 10 jobs before "late" enqueues 1; round-robin
        # serves "late" second, not eleventh.  Chaos jobs don't batch, so
        # each pop is a single job.
        q = FairQueue()
        for i in range(10):
            q.put(_job("hog", i, kind="chaos"))
        q.put(_job("late", 0, kind="chaos"))
        order = [q.pop_batch(1)[0].tenant for _ in range(3)]
        assert order == ["hog", "late", "hog"]

    def test_three_tenants_interleave(self):
        q = FairQueue()
        for t in ("a", "b", "c"):
            for i in range(2):
                q.put(_job(t, i, kind="chaos"))
        order = [q.pop_batch(1)[0].tenant for _ in range(6)]
        assert order == ["a", "b", "c", "a", "b", "c"]

    def test_within_tenant_is_fifo(self):
        q = FairQueue()
        for i in range(3):
            q.put(_job("a", i, kind="chaos"))
        ids = [q.pop_batch(1)[0].job_id for _ in range(3)]
        assert ids == ["a0", "a1", "a2"]

    def test_pop_empty(self):
        assert FairQueue().pop_batch(4) == []


class TestBatching:
    def test_gathers_compatible_jobs_across_tenants(self):
        q = FairQueue()
        q.put(_job("a", 0))            # same cube...
        q.put(_job("a", 1, faults=(1, 2)))  # ...whatever the fault set...
        q.put(_job("b", 0))            # ...from another tenant
        q.put(_job("b", 1, n=6))       # another cube: stays queued
        batch = q.pop_batch(8)
        assert sorted(j.job_id for j in batch) == ["a0", "a1", "b0"]
        assert len(q) == 1
        assert q.pop_batch(8)[0].job_id == "b1"

    def test_batch_max_caps_the_gather(self):
        q = FairQueue()
        for i in range(6):
            q.put(_job("a", i))
        batch = q.pop_batch(4)
        assert len(batch) == 4
        assert len(q) == 2

    def test_unbatchable_head_pops_alone(self):
        q = FairQueue()
        q.put(_job("a", 0, kind="chaos"))
        q.put(_job("a", 1, kind="chaos"))
        assert len(q.pop_batch(8)) == 1

    def test_batching_skips_non_matching_head(self):
        # The gather may take a matching job from *behind* a non-matching
        # head of another tenant's queue; the head stays put and in order.
        q = FairQueue()
        q.put(_job("a", 0))
        q.put(_job("b", 0, kind="chaos"))
        q.put(_job("b", 1))
        batch = q.pop_batch(8)
        assert sorted(j.job_id for j in batch) == ["a0", "b1"]
        assert q.pop_batch(8)[0].job_id == "b0"
