"""Cancellation of parallel runs: no orphaned workers, no swallowed ^C.

:func:`repro.parallel.run_tasks` distinguishes two teardown tiers:

* a task raising an ordinary ``Exception`` cancels the queued chunks but
  **keeps the warm pool** (one bad task must not cost every later caller
  the fork/import tax);
* an interrupt-style ``BaseException`` — a ``KeyboardInterrupt`` out of a
  worker, or out of a progress callback in the parent — cancels everything
  *and shuts the pool down*, so an aborted campaign never leaves worker
  processes behind.

The single-CPU auto-serial guard is monkeypatched away so these tests
exercise the real pool even on a 1-core runner.
"""

from __future__ import annotations

import pytest

import repro.parallel as parallel
from repro.chaos.campaign import run_campaign
from repro.parallel import run_tasks, shutdown_pool


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    import time

    time.sleep(0.05)
    return x * x


def _boom_value(x: int) -> int:
    if x == 3:
        raise ValueError("task 3 is cursed")
    return x


def _boom_interrupt(x: int) -> int:
    if x == 3:
        raise KeyboardInterrupt
    return x


@pytest.fixture(autouse=True)
def force_parallel_path(monkeypatch):
    """Defeat the 1-CPU auto-serial guard; always leave no pool behind."""
    monkeypatch.setattr(parallel, "effective_cpu_count", lambda: 4)
    yield
    shutdown_pool()
    assert parallel._pool is None


class TestWorkerExceptions:
    def test_ordinary_exception_keeps_the_pool_warm(self):
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(_boom_value, range(8), jobs=2)
        assert parallel._pool is not None  # warm pool survived
        # ...and is immediately reusable.
        assert run_tasks(_square, range(8), jobs=2) == [x * x for x in range(8)]

    def test_worker_interrupt_shuts_the_pool_down(self):
        run_tasks(_square, range(8), jobs=2)  # warm it first
        assert parallel._pool is not None
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_boom_interrupt, range(8), jobs=2)
        assert parallel._pool is None  # no orphaned workers

    def test_pool_rebuilds_after_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_boom_interrupt, range(8), jobs=2)
        assert run_tasks(_square, range(8), jobs=2) == [x * x for x in range(8)]


class TestParentCancellation:
    def test_progress_callback_interrupt_tears_down(self):
        seen = []

        def cancel_after_first(done, total, result):
            seen.append(result)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_tasks(_square, range(16), jobs=2, progress=cancel_after_first)
        assert seen  # at least one result arrived before the cancel
        assert parallel._pool is None

    def test_serial_interrupt_propagates(self):
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_boom_interrupt, range(8), jobs=1)


class TestPoolResize:
    def test_resize_drains_in_flight_batches(self):
        """Resizing the warm pool must not lose batches already dispatched.

        The service submits job batches straight onto :func:`warm_pool`; a
        concurrently arriving request with a different worker count used to
        hard-kill the old pool (``cancel_futures=True``) and cancel those
        in-flight batches.  The resize now *drains*: every future submitted
        before the resize still delivers its result.
        """
        pool = parallel.warm_pool(2)
        futures = [
            pool.submit(parallel._run_chunk, (_slow_square, [x]))
            for x in range(6)
        ]
        resized = parallel.warm_pool(3)
        assert resized is not pool
        assert parallel._pool_workers == 3
        results = [fut.result(timeout=30) for fut in futures]
        assert results == [[x * x] for x in range(6)]
        assert not any(fut.cancelled() for fut in futures)
        # The resized pool is live and usable.
        assert resized.submit(parallel._run_chunk, (_square, [7])).result(timeout=30) == [49]


class TestCampaignCancellation:
    def test_campaign_progress_cancel_leaves_no_pool(self, tmp_path):
        def cancel_immediately(idx, outcome):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(count=8, seed=1, out=str(tmp_path / "r.jsonl"),
                         backends=("phase",), shrink_failures=False,
                         progress=cancel_immediately, jobs=2)
        assert parallel._pool is None

    def test_campaign_completes_after_cancelled_run(self, tmp_path):
        def cancel_immediately(idx, outcome):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(count=8, seed=1, out=None, backends=("phase",),
                         shrink_failures=False,
                         progress=cancel_immediately, jobs=2)
        summary = run_campaign(count=4, seed=1, out=None, backends=("phase",),
                               shrink_failures=False, jobs=2)
        assert summary.scenarios == 4
        assert summary.all_passed
