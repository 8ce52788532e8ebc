"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

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
