"""``run.py --self-test``: show that every correctness check can fail.

Each check gets one good input, which it must accept, and one broken
input, which it must reject: a swapped pair of output keys, a perturbed
simulated clock or recorded digest, a planted ``repro_shm_*`` segment name,
a dropped service result and a wrong service checksum.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from types import SimpleNamespace

import numpy as np

import checks
import workloads
from common import OUT, load_baseline


def _cases():
    """``(name, must accept, check, args)`` for every good and broken input."""
    keys = np.random.default_rng(0).random(1000)
    expected = np.sort(keys)
    swapped = expected.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    yield "sorted output", True, checks.check_sorted, (expected.copy(), expected, "good")
    yield "swapped pair of keys", False, checks.check_sorted, (swapped, expected, "swapped")

    from repro.core.ftsort import fault_tolerant_sort

    res = fault_tolerant_sort(keys[:240], 4, [1, 6], kernels=workloads.KERNELS)
    digest = checks.sim_digest([res])
    pinned = {"sim_digest": {"probe": digest}}
    phases = list(res.machine.phases)
    phases[-1] = dataclasses.replace(phases[-1], comparisons=phases[-1].comparisons + 1)
    moved = SimpleNamespace(elapsed=res.elapsed, machine=SimpleNamespace(phases=phases))
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    yield "recorded sim_digest", True, checks.check_digest, ("probe", digest, pinned)
    yield "one phase's comparisons + 1", False, checks.check_digest, (
        "probe", checks.sim_digest([moved]), pinned)
    yield "perturbed recorded digest", False, checks.check_digest, (
        "probe", digest, {"sim_digest": {"probe": perturbed}})

    shm_dir = OUT / "selftest-shm"
    shutil.rmtree(shm_dir, ignore_errors=True)
    shm_dir.mkdir(parents=True)
    before = checks.shm_entries(str(shm_dir))
    yield "no new shm segment", True, checks.check_shm, (before, str(shm_dir))
    (shm_dir / f"{checks.SHM_PREFIX}_selftest_0").touch()
    yield "planted repro_shm_* name", False, checks.check_shm, (before, str(shm_dir))
    shutil.rmtree(shm_dir)

    def answered(drop: bool) -> None:
        jobs = [workloads.Job(i, {}, "acme", accepted=True, answered=True)
                for i in range(3)]
        if drop:
            jobs[1].answered = False
        tally = workloads.Tally()
        workloads.check_answered(jobs, tally)
        if tally.run_errors:
            raise checks.CheckFailed(tally.run_errors[0])

    yield "every job answered", True, answered, (False,)
    yield "dropped service result", False, answered, (True,)

    result = {"verified": True, "keys": expected.size, "checksum": float(expected.sum())}
    good = {"ok": True, "result": result}
    bad = {"ok": True, "result": {**result, "checksum": result["checksum"] + 1.0}}
    yield "service checksum", True, checks.check_service_result, (good, expected, "good")
    yield "wrong service checksum", False, checks.check_service_result, (bad, expected, "bad")


def self_test() -> int:
    recorded = load_baseline().get("sim_digest", {})
    missing = [w for w in workloads.WORKLOADS if w not in recorded]
    failures = 0
    for name, must_pass, fn, args in _cases():
        try:
            fn(*args)
            rejected = False
        except checks.CheckFailed:
            rejected = True
        ok = rejected != must_pass
        failures += not ok
        verdict = "rejected" if rejected else "accepted"
        print(f"  {'ok  ' if ok else 'FAIL'} {name:<32} {verdict}")
    if missing:
        failures += 1
        print(f"  FAIL baseline.json lacks sim_digest for {missing}")
    print(f"self-test: {'all checks can fail' if not failures else f'{failures} problem(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(self_test())
