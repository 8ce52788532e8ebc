"""Correctness checks of the end-to-end benchmark.

Every check raises :class:`CheckFailed` on a bad output; ``run.py
--self-test`` feeds each one a deliberately broken input to show it can.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_shm"


class CheckFailed(AssertionError):
    """An output of the program under test is wrong."""


def check_sorted(out, expected: np.ndarray, what: str) -> None:
    """``out`` must be byte-equal to ``np.sort`` of the same keys."""
    out = np.asarray(out)
    if (out.dtype != expected.dtype or out.shape != expected.shape
            or out.tobytes() != expected.tobytes()):
        raise CheckFailed(f"{what}: output is not byte-equal to np.sort")


def sim_digest(results) -> str:
    """sha256 of the simulated clock of ``results`` (FtSortResult list).

    Covers ``elapsed`` and every phase's duration and comparison/traffic
    counters; ``repr`` keeps every float digit.
    """
    doc = [[repr(float(r.elapsed)),
            [[repr(float(p.duration)), p.comparisons, p.elements_sent,
              p.element_hops, p.messages] for p in r.machine.phases]]
           for r in results]
    return hashlib.sha256(json.dumps(doc).encode("ascii")).hexdigest()


def check_digest(workload: str, digest: str, baseline: dict) -> None:
    """The simulated clock must match the digest recorded in the baseline."""
    expected = baseline.get("sim_digest", {}).get(workload)
    if expected is None:
        raise CheckFailed(f"{workload}: baseline has no sim_digest")
    if digest != expected:
        raise CheckFailed(f"{workload}: simulated time moved "
                          f"(sim_digest {digest[:12]} != {expected[:12]})")


def shm_entries(directory: str = SHM_DIR) -> set[str]:
    try:
        return {n for n in os.listdir(directory) if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def check_shm(before: set[str], directory: str = SHM_DIR) -> None:
    """No ``repro_shm_*`` segment may outlive the run that created it."""
    leaked = shm_entries(directory) - before
    if leaked:
        raise CheckFailed(f"{len(leaked)} shm segment(s) left behind: "
                          f"{sorted(leaked)[:3]}")


def check_answers(accepted, answered) -> None:
    """Every accepted service job must get its terminal answer."""
    dropped = set(accepted) - set(answered)
    if dropped:
        raise CheckFailed(f"{len(dropped)} accepted job(s) never answered: "
                          f"{sorted(dropped)[:3]}")


def check_service_result(msg: dict, expected: np.ndarray, what: str) -> None:
    """A sort job's result must report success and ``np.sort``'s checksum."""
    result = msg.get("result") or {}
    if not msg.get("ok") or result.get("verified") is not True:
        raise CheckFailed(f"{what}: job failed: {result.get('error', result)}")
    if result.get("keys") != expected.size:
        raise CheckFailed(f"{what}: {result.get('keys')} keys, "
                          f"expected {expected.size}")
    if result.get("checksum") != float(expected.sum()):
        raise CheckFailed(f"{what}: checksum {result.get('checksum')!r} != "
                          f"np.sort sum {float(expected.sum())!r}")
