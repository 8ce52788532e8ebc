"""repro — Fault-Tolerant Sorting on Hypercube Multicomputers.

A full reproduction of Sheu, Chen & Chang (ICPP 1992): an algorithm-based
fault-tolerant parallel sort that tolerates up to ``n - 1`` faulty
processors on an ``n``-dimensional hypercube, together with every substrate
it needs — hypercube topology, fault model and diagnosis, an NCUBE/7-style
simulated multicomputer (phase-level and discrete-event), hypercube
collectives, bitonic sorting kernels — and the maximal fault-free subcube
baseline it is evaluated against.

Quickstart::

    import numpy as np
    from repro import fault_tolerant_sort

    keys = np.random.default_rng(0).integers(0, 10**6, size=4096)
    result = fault_tolerant_sort(keys, n=6, faults=[3, 5, 16, 24])
    assert (result.sorted_keys == np.sort(keys)).all()
    print(result.elapsed, result.selection.cut_dims)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison of every table and figure.
"""

from repro.core import (
    FtSortResult,
    PartitionResult,
    SelectionResult,
    SortSchedule,
    SpmdSortResult,
    build_ft_schedule,
    build_plain_schedule,
    fault_free_bitonic_sort,
    fault_tolerant_sort,
    fault_tolerant_sort_batch,
    find_min_cuts,
    paper_worst_case_time,
    plan_partition,
    select_cut_sequence,
    single_fault_bitonic_sort,
    spmd_fault_tolerant_sort,
)
from repro.baselines import max_fault_free_subcube, max_subcube_sort
from repro.cube import Hypercube, Subcube, AddressSplit
from repro.faults import FaultKind, FaultSet, random_fault_set
from repro.simulator import MachineParams, PhaseMachine, SpmdMachine

__version__ = "1.0.0"

__all__ = [
    "AddressSplit",
    "FaultKind",
    "FaultSet",
    "FtSortResult",
    "Hypercube",
    "MachineParams",
    "PartitionResult",
    "PhaseMachine",
    "SelectionResult",
    "SortSchedule",
    "SpmdMachine",
    "SpmdSortResult",
    "Subcube",
    "__version__",
    "build_ft_schedule",
    "build_plain_schedule",
    "fault_free_bitonic_sort",
    "fault_tolerant_sort",
    "fault_tolerant_sort_batch",
    "find_min_cuts",
    "max_fault_free_subcube",
    "max_subcube_sort",
    "paper_worst_case_time",
    "plan_partition",
    "random_fault_set",
    "select_cut_sequence",
    "single_fault_bitonic_sort",
    "spmd_fault_tolerant_sort",
]
