"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.model import FaultSet
from repro.simulator.params import MachineParams


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; reseeded per test function."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def unit_params() -> MachineParams:
    """Unit cost constants so durations equal raw operation counts."""
    return MachineParams.unit()


def assert_sorted_output(result, keys):
    """Common oracle: result.sorted_keys equals numpy's sort of the input."""
    expected = np.sort(np.asarray(keys, dtype=float), kind="stable")
    np.testing.assert_array_equal(result.sorted_keys, expected)


def _no_op_observer(machine, record) -> None:
    """Attached only to route a ``compiled`` sort through the program walker."""


#: ``fault_tolerant_sort`` arguments per route of the kernel parity suites:
#: the ``loop`` spec, the compiled kernels on the program walker (the
#: schedule executor does not model phase observers, so a sort with one
#: walks its program pair by pair at every ``r``), and the compiled
#: schedule executor.
KERNEL_ROUTES = {
    "loop": dict(kernels="loop"),
    "interpreted": dict(kernels="compiled", observer=_no_op_observer),
    "compiled": dict(kernels="compiled"),
}


def moved_fault_set(fault_set: FaultSet, shift: int, perm=None) -> FaultSet:
    """``fault_set`` moved by the cube automorphism ``x -> perm(x XOR
    shift)``: another plan with the same ``(n, m)``, so a program bound to
    the same skeleton, over other output order and hops."""
    n = fault_set.n
    perm = range(n) if perm is None else perm

    def move(x: int) -> int:
        x ^= shift % (1 << n)
        return sum(((x >> k) & 1) << perm[k] for k in range(n))

    return FaultSet(n, [move(a) for a in fault_set.processors], kind=fault_set.kind,
                    links=[(move(a), move(a | (1 << d))) for a, d in fault_set.links])
