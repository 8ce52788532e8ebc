"""Executor tiers: resolution policy, shm transport, cross-tier parity.

Three layers of guarantees:

* **Policy** — :func:`repro.parallel.resolve_executor` honors explicit
  requests, the ``REPRO_EXECUTOR``/``REPRO_JOBS`` environment, and the
  can't-win degrade guard for *every* tier (which is what keeps ``--fast``
  runs working unchanged on 1-CPU hosts); the ``auto`` policy switches
  tiers at the measured pickling break-even.
* **Transport** — :mod:`repro.shm` pack/unpack round-trips arbitrary
  task/result containers exactly, with copy-out semantics (reads survive
  the arena being closed and unlinked) and no ``/dev/shm`` residue.
* **Parity** — serial, process, thread, and shm campaigns produce
  byte-identical JSONL reports and identical observability counter sums
  on all three kernel backends (hypothesis over scenario count, seed,
  jobs, and fault classes).  The serial loop is the reference; the other
  tiers must reproduce it bit-for-bit, which is exactly what lets the
  benchmark pick tiers on speed alone.

The 1-CPU auto-serial guard is monkeypatched away (as in
``tests/chaos/test_cancellation.py``) so the real pools run even on a
1-core host.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel as parallel
import repro.shm as shm
from repro.chaos.campaign import run_campaign
from repro.parallel import (
    PICKLE_BREAK_EVEN_BYTES,
    jobs_from_env,
    resolve_executor,
    resolve_jobs,
    run_tasks,
    shutdown_pool,
)

BIG = PICKLE_BREAK_EVEN_BYTES * 4


def _no_segments() -> bool:
    return not glob.glob("/dev/shm/repro_shm_*")


@pytest.fixture(autouse=True)
def force_parallel_path(monkeypatch):
    """Defeat the 1-CPU auto-serial guard; leave no pools or arenas."""
    monkeypatch.setattr(parallel, "effective_cpu_count", lambda: 4)
    yield
    shutdown_pool()
    assert parallel._pool is None
    assert parallel._thread_pool is None
    assert _no_segments()


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


class TestResolveExecutor:
    def test_explicit_requests_honored_when_winnable(self):
        for tier in ("process", "thread", "shm"):
            assert resolve_executor(tier, jobs=4, total=100) == tier

    def test_degrade_guard_applies_to_every_tier(self, monkeypatch):
        # Too few tasks for the worker count.
        for tier in ("process", "thread", "shm", "auto", None):
            assert resolve_executor(tier, jobs=4, total=3) == "serial"
        # One usable CPU: nothing parallel can win.
        monkeypatch.setattr(parallel, "effective_cpu_count", lambda: 1)
        assert resolve_executor("thread", jobs=4, total=100) == "serial"

    def test_auto_policy_switches_at_the_break_even(self):
        small, big = PICKLE_BREAK_EVEN_BYTES // 2, PICKLE_BREAK_EVEN_BYTES
        assert resolve_executor(
            "auto", jobs=4, total=100, payload_hint=small, kernels="numpy"
        ) == "process"
        assert resolve_executor(
            "auto", jobs=4, total=100, payload_hint=big, kernels="numpy"
        ) == "thread"
        assert resolve_executor(
            "auto", jobs=4, total=100, payload_hint=big, kernels="compiled"
        ) == "thread"
        # The GIL-holding loop backend cannot use threads; big payloads
        # take the arena route instead.
        assert resolve_executor(
            "auto", jobs=4, total=100, payload_hint=big, kernels="loop"
        ) == "shm"

    def test_env_consulted_when_unspecified(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert resolve_executor(None, jobs=4, total=100) == "thread"
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert resolve_executor(
            None, jobs=4, total=100, payload_hint=0, kernels="numpy"
        ) == "process"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu", jobs=4, total=100)


class TestShmTransport:
    def test_roundtrip_preserves_structure_and_values(self):
        rng = np.random.default_rng(3)
        arr = rng.random(9000)
        obj = (7, {"keys": arr, "tag": "x" * 5000, "small": b"ab"},
               [arr[:5], None, 1.5])
        size = shm.collect_leaf_bytes(obj)
        assert size > 0
        arena = shm.Arena.create("test", size)
        packed = shm.pack(obj, arena)
        arena.close()
        cache = shm._AttachCache()
        out = shm.unpack(packed, cache)
        cache.close(unlink=True)
        assert out[0] == 7
        assert np.array_equal(out[1]["keys"], arr)
        assert out[1]["tag"] == "x" * 5000
        assert out[1]["small"] == b"ab"      # below the leaf threshold: inline
        assert np.array_equal(out[2][0], arr[:5])
        assert out[2][1] is None and out[2][2] == 1.5
        assert _no_segments()

    def test_reads_are_copies(self):
        arr = np.arange(8000, dtype=float)
        arena = shm.Arena.create("copy", shm.collect_leaf_bytes(arr))
        ref = shm.pack(arr, arena)
        arena.close()
        cache = shm._AttachCache()
        out = shm.unpack(ref, cache)
        cache.close(unlink=True)   # segment gone...
        assert np.array_equal(out, arr)  # ...copy still readable
        out[0] = -1.0                     # and writable
        assert _no_segments()

    def test_small_payloads_stay_inline(self):
        tagged = shm.pack_results([{"tiny": 1}], shm.make_name("res"))
        assert tagged[0] == "inline"
        assert _no_segments()

    def test_pack_results_roundtrip_unlinks(self):
        results = [{"keys": np.arange(6000, dtype=float)} for _ in range(3)]
        name = shm.make_name("res")
        shm.register_name(name)
        tagged = shm.pack_results(results, name)
        assert tagged[0] == "shm"
        out, moved = shm.unpack_results(tagged)
        shm.deregister_name(name)
        assert moved == 3 * 6000 * 8
        for got, want in zip(out, results):
            assert np.array_equal(got["keys"], want["keys"])
        assert _no_segments()

    def test_sweep_ignores_absent_and_removes_present(self):
        arena = shm.Arena.create("sweep", 4096)
        assert shm.sweep([arena.name, "repro_shm_never_created"]) == 1
        arena.close()
        assert _no_segments()
        assert shm.registered_names() == ()


def _sorted_sum(task):
    idx, arr = task
    return (idx, float(np.sort(arr).sum()), arr[: 8].copy())


class TestRunTasksParity:
    def test_all_tiers_match_serial(self):
        rng = np.random.default_rng(11)
        tasks = [(i, rng.random(BIG // 8)) for i in range(12)]
        ref = run_tasks(_sorted_sum, tasks, jobs=1, executor="serial")
        for tier in ("process", "thread", "shm"):
            got = run_tasks(_sorted_sum, tasks, jobs=3, executor=tier)
            assert parallel.last_run_stats()["executor"] == tier
            for (ri, rs, ra), (gi, gs, ga) in zip(ref, got):
                assert (ri, rs) == (gi, gs)
                assert np.array_equal(ra, ga)

    def test_stats_account_for_the_transport(self):
        rng = np.random.default_rng(12)
        tasks = [(i, rng.random(BIG // 8)) for i in range(8)]
        run_tasks(_sorted_sum, tasks, jobs=2, executor="process")
        by_pickle = parallel.last_run_stats()
        run_tasks(_sorted_sum, tasks, jobs=2, executor="thread")
        by_thread = parallel.last_run_stats()
        run_tasks(_sorted_sum, tasks, jobs=2, executor="shm")
        by_arena = parallel.last_run_stats()
        assert by_pickle["pickled_bytes"] == by_pickle["payload_bytes"] > 0
        assert by_thread["pickled_bytes"] == 0
        assert by_arena["arena_bytes"] > 0
        assert by_arena["pickled_bytes"] < by_pickle["pickled_bytes"]

    def test_progress_fires_for_every_task(self):
        rng = np.random.default_rng(13)
        tasks = [(i, rng.random(BIG // 8)) for i in range(8)]
        seen = []
        run_tasks(_sorted_sum, tasks, jobs=2, executor="shm",
                  progress=lambda done, total, r: seen.append((done, total)))
        assert [d for d, _ in seen] == list(range(1, 9))
        assert all(t == 8 for _, t in seen)


def _campaign_lines(tmp_path, tag, **kw) -> tuple[str, dict]:
    out = tmp_path / f"{tag}.jsonl"
    summary = run_campaign(out=str(out), shrink_failures=False, **kw)
    return out.read_text(), summary.to_dict()


class TestCampaignParity:
    """Serial vs process vs thread vs shm: byte-identical campaigns."""

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
        # Workers inherit REPRO_KERNELS at fork time: recycle the pools
        # whenever the backend changes so every tier sees the same one.
        previous = os.environ.get("REPRO_KERNELS")
        os.environ["REPRO_KERNELS"] = backend
        shutdown_pool()
        try:
            kw = dict(count=count, seed=seed, backends=("phase",),
                      fault_classes=classes, jobs=jobs)
            ref_text, ref_summary = _campaign_lines(
                tmp_path, "serial", executor="serial", **kw)
            for tier in ("process", "thread", "shm"):
                text, summary = _campaign_lines(
                    tmp_path, tier, executor=tier, **kw)
                assert text == ref_text, f"{tier} diverged from serial"
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
