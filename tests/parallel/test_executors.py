"""Executors: the serial loop and the warm process pool.

Two layers of guarantees:

* **Policy** — :func:`repro.parallel.run_tasks` honors the
  ``REPRO_JOBS`` environment and the can't-win degrade guard (one usable
  CPU, ``jobs <= 1``, or fewer than ``2 * jobs`` tasks run the serial
  loop), which is what keeps ``--fast`` runs working unchanged on 1-CPU
  hosts; otherwise the warm process pool runs.
* **Parity** — serial and process-pool campaigns produce byte-identical
  JSONL reports and identical observability counter sums on all three
  kernel backends (hypothesis over scenario count, seed, jobs, and fault
  classes).  The serial loop is the reference; the pool must reproduce
  it bit-for-bit.

The 1-CPU auto-serial guard is monkeypatched away (as in
``tests/chaos/test_cancellation.py``) so the real pool runs even on a
1-core host.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel as parallel
from repro.chaos.campaign import run_campaign
from repro.parallel import jobs_from_env, resolve_jobs, run_tasks, shutdown_pool

#: Keys per task array (256 KiB of float64).
KEYS = 1 << 15


@pytest.fixture(autouse=True)
def force_parallel_path(monkeypatch):
    """Defeat the 1-CPU auto-serial guard; leave no pool behind."""
    monkeypatch.setattr(parallel, "effective_cpu_count", lambda: 4)
    yield
    shutdown_pool()
    assert parallel._pool is None


class TestResolveJobs:
    def test_auto_and_zero_mean_all_usable_cpus(self):
        assert resolve_jobs("auto") == parallel.effective_cpu_count()
        assert resolve_jobs("0") == parallel.effective_cpu_count()
        assert resolve_jobs(0) == parallel.effective_cpu_count()
        assert resolve_jobs(None) == parallel.effective_cpu_count()

    def test_numeric_strings_and_ints_agree(self):
        assert resolve_jobs("3") == 3
        assert resolve_jobs(3) == 3

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs("many")
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert jobs_from_env(1) == 1
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert jobs_from_env(1) == parallel.effective_cpu_count()
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert jobs_from_env(1) == 2


def _square(x: int) -> int:
    return x * x


class TestResolveExecutor:
    """Which executor :func:`run_tasks` runs on: the guard decides."""

    def test_degrade_guard_applies_to_every_tier(self, monkeypatch):
        def executor(tasks: int, jobs: int) -> str:
            assert run_tasks(_square, range(tasks), jobs=jobs) == [
                x * x for x in range(tasks)]
            return parallel.last_run_stats()["executor"]

        assert executor(8, jobs=4) == "process"
        assert parallel.last_run_stats()["jobs"] == 4
        # Too few tasks for the worker count, or no workers asked for.
        assert executor(7, jobs=4) == "serial"
        assert executor(100, jobs=1) == "serial"
        # One usable CPU: nothing parallel can win.
        monkeypatch.setattr(parallel, "effective_cpu_count", lambda: 1)
        assert executor(100, jobs=4) == "serial"


def _kernel_budget(_task) -> int:
    return parallel.kernel_threads()


class TestKernelThreads:
    """The compiled tier's per-call thread budget."""

    def test_every_usable_core_in_an_ordinary_process(self):
        assert parallel.kernel_threads() == 4  # the fixture's patched count

    def test_pool_workers_run_kernels_on_one_core(self):
        """``--jobs N`` already runs one task per core: a worker's sort
        must not start more threads on top."""
        assert run_tasks(_kernel_budget, range(4), jobs=2) == [1] * 4
        assert parallel.last_run_stats()["executor"] == "process"


def _sorted_sum(task):
    idx, arr = task
    return (idx, float(np.sort(arr).sum()), arr[: 8].copy())


class TestRunTasksParity:
    def test_all_tiers_match_serial(self):
        rng = np.random.default_rng(11)
        tasks = [(i, rng.random(KEYS)) for i in range(12)]
        ref = run_tasks(_sorted_sum, tasks, jobs=1)
        assert parallel.last_run_stats()["executor"] == "serial"
        got = run_tasks(_sorted_sum, tasks, jobs=3)
        assert parallel.last_run_stats()["executor"] == "process"
        for (ri, rs, ra), (gi, gs, ga) in zip(ref, got):
            assert (ri, rs) == (gi, gs)
            assert np.array_equal(ra, ga)

    def test_progress_fires_for_every_task(self):
        rng = np.random.default_rng(13)
        tasks = [(i, rng.random(KEYS)) for i in range(8)]
        seen = []
        run_tasks(_sorted_sum, tasks, jobs=2,
                  progress=lambda done, total, r: seen.append((done, total)))
        assert parallel.last_run_stats()["executor"] == "process"
        assert [d for d, _ in seen] == list(range(1, 9))
        assert all(t == 8 for _, t in seen)


def _campaign_lines(tmp_path, tag, **kw) -> tuple[str, dict]:
    out = tmp_path / f"{tag}.jsonl"
    summary = run_campaign(out=str(out), shrink_failures=False, **kw)
    return out.read_text(), summary.to_dict()


class TestCampaignParity:
    """Serial loop vs process pool: byte-identical campaigns."""

    @pytest.mark.parametrize("backend", ("numpy", "loop", "compiled"))
    @given(
        count=st.integers(min_value=4, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        jobs=st.integers(min_value=2, max_value=4),
        classes=st.sampled_from(
            [("baseline",), ("comparison", "memory"), ("baseline", "abft")]
        ),
    )
    @settings(max_examples=3, deadline=None)
    def test_all_tiers_byte_identical(self, backend, tmp_path_factory,
                                      count, seed, jobs, classes):
        tmp_path = tmp_path_factory.mktemp("parity")
        # Workers inherit REPRO_KERNELS at fork time: recycle the pool
        # whenever the backend changes so every worker sees the same one.
        previous = os.environ.get("REPRO_KERNELS")
        os.environ["REPRO_KERNELS"] = backend
        shutdown_pool()
        try:
            kw = dict(count=count, seed=seed, backends=("phase",),
                      fault_classes=classes)
            ref_text, ref_summary = _campaign_lines(
                tmp_path, "serial", jobs=1, **kw)
            text, summary = _campaign_lines(tmp_path, "pool", jobs=jobs, **kw)
            expected = "process" if count >= 2 * jobs else "serial"
            assert parallel.last_run_stats()["executor"] == expected
            assert text == ref_text, "process pool diverged from serial"
            assert summary == ref_summary
            # Obs counter sums survive the executor change: re-derive from
            # the report lines (the last line is the summary) and
            # cross-check against the aggregated summary.
            lines = [json.loads(l) for l in ref_text.splitlines()][:-1]
            assert sum(l["retries"] for l in lines) == ref_summary["retries"]
            assert (sum(l["recoveries"] for l in lines)
                    == ref_summary["recoveries"])
        finally:
            shutdown_pool()
            if previous is None:
                os.environ.pop("REPRO_KERNELS", None)
            else:
                os.environ["REPRO_KERNELS"] = previous
