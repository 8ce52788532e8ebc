"""Unit tests for the kernel layer and the parallel execution plumbing.

Covers the backend registry, the heapsort copy semantics, batched
exchange-phase equivalence on a real machine, the memoized partition DFS
against its reference implementation, SPMD backend parity, and the
parallel chaos/artifact runners (``jobs > 1`` must be indistinguishable
from serial).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.chaos.campaign import run_campaign
from repro.core.partition import _find_min_cuts_reference, find_min_cuts
from repro.core.spmd_sort import spmd_fault_tolerant_sort
from repro.kernels import (
    KernelBackend,
    available_backends,
    default_backend_name,
    get_backend,
    resolve_backend,
)
from repro.parallel import effective_cpu_count, resolve_jobs, run_tasks
from repro.simulator.phases import PhaseMachine
from repro.sorting.bitonic_cube import run_exchange_jobs, substage_pairs
from repro.sorting.heapsort import heapsort


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ("compiled", "loop")

    def test_get_backend_returns_instances(self):
        assert get_backend("compiled").schedule_compiled
        assert not get_backend("loop").schedule_compiled
        for name in available_backends():
            assert isinstance(get_backend(name), KernelBackend)
            assert get_backend(name).name == name

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_resolve_backend_forms(self):
        loop = get_backend("loop")
        assert resolve_backend(loop) is loop
        assert resolve_backend("loop") is loop
        assert resolve_backend(None).name == default_backend_name()

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert default_backend_name() == "compiled"
        monkeypatch.setenv("REPRO_KERNELS", "loop")
        assert default_backend_name() == "loop"
        assert resolve_backend(None) is get_backend("loop")
        monkeypatch.setenv("REPRO_KERNELS", "not-a-backend")
        assert default_backend_name() == "compiled"
        # The retired tier's name is just another unknown name: an old
        # shell keeps working, on the default backend.
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert default_backend_name() == "compiled"
        assert resolve_backend(None) is get_backend("compiled")


class TestHeapsortCopySemantics:
    def test_list_input_sorts(self):
        out, comps = heapsort([3.0, 1.0, 2.0])
        assert out.tolist() == [1.0, 2.0, 3.0]
        assert comps > 0

    def test_ndarray_input_not_modified(self, rng):
        src = rng.permutation(64).astype(float)
        before = src.copy()
        out, _ = heapsort(src)
        np.testing.assert_array_equal(src, before)
        np.testing.assert_array_equal(out, np.sort(before))

    def test_view_input_not_modified(self, rng):
        base = rng.permutation(32).astype(float)
        view = base[4:20]
        before = base.copy()
        heapsort(view)
        np.testing.assert_array_equal(base, before)

    def test_readonly_input_handled(self, rng):
        src = rng.permutation(16).astype(float)
        src.flags.writeable = False
        out, _ = heapsort(src)
        np.testing.assert_array_equal(out, np.sort(src))


def _exchange_machine(n: int, width: int, seed: int) -> PhaseMachine:
    rng = np.random.default_rng(seed)
    machine = PhaseMachine(n)
    for addr in range(1 << n):
        machine.set_block(addr, np.sort(rng.integers(0, 1000, size=width)).astype(float))
    return machine


class TestRunExchangeJobsParity:
    """The compiled and loop kernels run identical exchange phases."""

    @pytest.mark.parametrize("probe", [True, False])
    def test_backends_agree_on_full_substage(self, probe):
        jobs = [(low, high, keep_min, None)
                for low, high, keep_min in substage_pairs(3, 2, 2)]
        machines = {}
        for name in ("compiled", "loop"):
            m = _exchange_machine(3, 16, seed=42)
            with m.phase("cx"):
                run_exchange_jobs(m, jobs, kernels=name, probe=probe)
            machines[name] = m
        a, b = machines["compiled"], machines["loop"]
        assert a.elapsed == b.elapsed
        assert a.total_comparisons() == b.total_comparisons()
        assert a.total_elements_sent() == b.total_elements_sent()
        for addr in range(8):
            np.testing.assert_array_equal(a.get_block(addr), b.get_block(addr))

    def test_empty_side_is_free(self):
        m = _exchange_machine(1, 8, seed=7)
        m.set_block(1, np.asarray([]))
        with m.phase("cx"):
            run_exchange_jobs(m, [(0, 1, True, None)])
        assert m.elapsed == 0.0
        assert m.get_block(1).size == 0

    def test_probe_skips_presplit_pair(self):
        m = _exchange_machine(1, 8, seed=7)
        m.set_block(0, np.arange(8.0))
        m.set_block(1, np.arange(8.0) + 100.0)
        with m.phase("cx"):
            run_exchange_jobs(m, [(0, 1, True, None)], probe=True)
        probed = m.elapsed
        assert m.total_elements_sent() == 2  # the two probe keys only

        m2 = _exchange_machine(1, 8, seed=7)
        m2.set_block(0, np.arange(8.0))
        m2.set_block(1, np.arange(8.0) + 100.0)
        with m2.phase("cx"):
            run_exchange_jobs(m2, [(0, 1, True, None)], probe=False)
        assert m2.total_elements_sent() > 2
        assert m2.elapsed > probed


class TestPartitionMemoMatchesReference:
    def test_fixed_example(self):
        for faults in ([0, 6, 9], [3, 5, 16, 24], [0], []):
            n = 5 if max(faults, default=0) > 15 else 4
            got = find_min_cuts(n, faults)
            ref = _find_min_cuts_reference(n, faults)
            assert got.mincut == ref.mincut
            assert got.cutting_set == ref.cutting_set

    def test_randomized_parity(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(0, n))
            faults = sorted(rng.choice(1 << n, size=r, replace=False).tolist())
            got = find_min_cuts(n, faults)
            ref = _find_min_cuts_reference(n, faults)
            assert (got.mincut, got.cutting_set) == (ref.mincut, ref.cutting_set)

    def test_max_depth_error_parity(self):
        faults = [0, 1, 2, 3]
        with pytest.raises(ValueError) as new_err:
            find_min_cuts(4, faults, max_depth=1)
        with pytest.raises(ValueError) as ref_err:
            _find_min_cuts_reference(4, faults, max_depth=1)
        assert str(new_err.value) == str(ref_err.value)


class TestSpmdBackendParity:
    def test_identical_results_across_kernels(self, rng):
        n = 3
        keys = rng.integers(0, 10**6, size=70).astype(float)
        results = {
            name: spmd_fault_tolerant_sort(keys, n, [5], kernels=name)
            for name in ("compiled", "loop")
        }
        a, b = results["compiled"], results["loop"]
        np.testing.assert_array_equal(a.sorted_keys, b.sorted_keys)
        np.testing.assert_array_equal(a.sorted_keys, np.sort(keys))
        assert a.finish_time == b.finish_time
        assert sorted(a.blocks) == sorted(b.blocks)
        for rank in a.blocks:
            np.testing.assert_array_equal(a.blocks[rank], b.blocks[rank])


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"task {x} failed")


class TestRunTasks:
    def test_serial_preserves_order_and_progress(self):
        seen = []
        out = run_tasks(_square, [3, 1, 2], jobs=1,
                        progress=lambda done, total, r: seen.append((done, total, r)))
        assert out == [9, 1, 4]
        assert seen == [(1, 3, 9), (2, 3, 1), (3, 3, 4)]

    def test_parallel_results_in_task_order(self):
        tasks = list(range(12))
        assert run_tasks(_square, tasks, jobs=3) == [x * x for x in tasks]

    def test_parallel_exception_propagates(self):
        with pytest.raises(RuntimeError, match=r"task [23] failed"):
            run_tasks(_boom, [2, 3], jobs=2)

    def test_resolve_jobs(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) == effective_cpu_count()
        assert resolve_jobs(0) == effective_cpu_count()
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_effective_cpu_count_honors_affinity(self):
        count = effective_cpu_count()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count == len(os.sched_getaffinity(0))
        assert count <= (os.cpu_count() or count)


class TestParallelCampaignMatchesSerial:
    def test_jobs2_identical_to_serial(self, tmp_path):
        outs = {}
        for jobs in (1, 2):
            path = tmp_path / f"report_{jobs}.jsonl"
            summary = run_campaign(count=6, seed=11, out=str(path),
                                   n_choices=(3,), max_keys=40, jobs=jobs)
            outs[jobs] = (summary, path.read_text())
        s1, lines1 = outs[1]
        s2, lines2 = outs[2]
        assert lines1 == lines2
        assert (s1.scenarios, s1.passed, s1.recoveries, s1.retries) == (
            s2.scenarios, s2.passed, s2.recoveries, s2.retries)
        assert s1.mean_detect_latency == s2.mean_detect_latency


class TestParallelRunnerMatchesSerial:
    def test_jobs2_artifacts_identical_to_serial(self, tmp_path):
        from repro.experiments.runner import run_all

        manifests = {}
        for jobs in (1, 2):
            out = tmp_path / f"results_{jobs}"
            manifests[jobs] = run_all(str(out), quick=True, seed=7, jobs=jobs)
        assert manifests[1] == manifests[2]
        for name in manifests[1]:
            a = (tmp_path / "results_1" / name).read_bytes()
            b = (tmp_path / "results_2" / name).read_bytes()
            assert a == b, f"artifact {name} differs between serial and jobs=2"
        # MANIFEST differs only in the wall-clock/jobs header line.
        m1 = (tmp_path / "results_1" / "MANIFEST.txt").read_text().splitlines()
        m2 = (tmp_path / "results_2" / "MANIFEST.txt").read_text().splitlines()
        assert [l for l in m1 if "wall-clock" not in l] == \
               [l for l in m2 if "wall-clock" not in l]
