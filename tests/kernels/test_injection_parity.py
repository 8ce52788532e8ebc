"""Comparison-fault injection preserves the cross-backend parity contract.

The repo's core guarantee is that the ``loop`` spec, the ``compiled``
kernels on the per-pair interpreter, and the ``compiled`` schedule
executor — and the phase and SPMD engines — produce byte-identical sorted
output.  Injected comparator lies must not break that: the flip decision
is a pure symmetric hash of the two operand *values*, so every backend
lies about exactly the same duels and the (mis-sorted) outputs stay
identical.  This is what makes a comparison-fault campaign result
meaningful: a survival difference between backends would be an engine
bug, never injection noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ftsort import fault_tolerant_sort
from repro.core.spmd_sort import spmd_fault_tolerant_sort
from repro.faults.injectors import ComparisonInjector, comparison_faults
from repro.faults.model import FaultKind, FaultSet
from repro.faults.oracles import multiset_delta
from tests.conftest import KERNEL_ROUTES


def _keys(seed: int, m: int = 96) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10**6, m).astype(float)


@pytest.mark.parametrize("p", [0.0, 0.002, 0.02])
@pytest.mark.parametrize("fault_procs", [(), (3, 5)], ids=["r0", "r2"])
class TestInjectionByteIdentity:
    # 4,000 keys make 250-key blocks (286 with two faults), where the
    # compiled tier keeps rows unsorted between substages.
    @pytest.mark.parametrize("m", [96, 4000])
    def test_phase_engines_identical_under_lies(self, p, fault_procs, m):
        keys = _keys(7, m)
        faults = FaultSet(4, fault_procs, kind=FaultKind.PARTIAL)
        outputs = {}
        stats = {}
        for route, kw in KERNEL_ROUTES.items():
            inj = ComparisonInjector(p, seed=42)
            with comparison_faults(inj):
                res = fault_tolerant_sort(keys, 4, faults, **kw)
            outputs[route] = res.sorted_keys
            stats[route] = (inj.fired, inj.fired_probe, inj.evaluated)
        base = outputs["loop"]
        for route in ("interpreted", "compiled"):
            assert np.array_equal(base, outputs[route]), (
                f"{route} diverged from loop at p={p}")
            assert stats[route] == stats["loop"], (
                f"{route} fired different lies than loop at p={p}")
        # Lies reroute keys; they never create or destroy them.
        assert multiset_delta(base, np.sort(keys)) == 0

    def test_spmd_matches_phase_under_lies(self, p, fault_procs):
        keys = _keys(11)
        faults = FaultSet(4, fault_procs, kind=FaultKind.PARTIAL)
        inj_phase = ComparisonInjector(p, seed=42)
        with comparison_faults(inj_phase):
            phase = fault_tolerant_sort(keys, 4, faults, kernels="compiled")
        inj_spmd = ComparisonInjector(p, seed=42)
        with comparison_faults(inj_spmd):
            spmd = spmd_fault_tolerant_sort(keys, 4, faults, kernels="compiled")
        assert np.array_equal(phase.sorted_keys, spmd.sorted_keys)
        # Same logical duels, same lies (the SPMD low side records for
        # the pair, mirroring the phase engine's one-decision-per-pair).
        assert (inj_phase.fired, inj_phase.fired_probe) == (
            inj_spmd.fired, inj_spmd.fired_probe)


class TestInjectionScoping:
    def test_no_injection_without_context(self):
        # The injector is context-scoped: outside `with comparison_faults`
        # the kernels take their exact fault-free paths.
        keys = _keys(3)
        res = fault_tolerant_sort(keys, 4, [], kernels="compiled")
        assert np.array_equal(res.sorted_keys, np.sort(keys))

    def test_p_zero_injection_is_exact(self):
        keys = _keys(5)
        inj = ComparisonInjector(0.0, seed=1)
        with comparison_faults(inj):
            res = fault_tolerant_sort(keys, 4, [3], kernels="compiled")
        assert np.array_equal(res.sorted_keys, np.sort(keys))
        assert inj.fired == 0
        assert inj.evaluated > 0  # the duels were consulted, all truthful
