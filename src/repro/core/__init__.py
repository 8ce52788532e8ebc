"""The paper's primary contribution.

* :mod:`repro.core.partition` — Section 2.2: the optimal partition
  algorithm (cutting-dimension tree DFS + checking tree) producing the
  ``mincut`` value and the cutting set ``Ψ``.
* :mod:`repro.core.selection` — Section 3: the Eq.-(1) min-max heuristic
  choosing ``D_β`` from ``Ψ`` and the dangling-processor vote.
* :mod:`repro.core.single_fault` — Section 2.1: bitonic sort on a hypercube
  with one faulty processor (XOR reindexing + dead-node skip).
* :mod:`repro.core.ftsort` — Section 3: the full fault-tolerant sorting
  algorithm (steps 1-8) tolerating up to ``n - 1`` faults.
* :mod:`repro.core.cost` — the paper's closed-form worst-case time ``T``.
"""

from repro.core.partition import (
    CheckingTree,
    PartitionResult,
    find_min_cuts,
    is_single_fault_partition,
    max_dangling_bound,
)
from repro.core.selection import (
    SelectionResult,
    choose_dangling_w,
    extra_comm_cost,
    select_cut_sequence,
)
from repro.core.single_fault import single_fault_bitonic_sort, fault_free_bitonic_sort
from repro.core.ftsort import (
    FtSortResult,
    fault_tolerant_sort,
    fault_tolerant_sort_batch,
    plan_partition,
)
from repro.core.schedule import (
    SortSchedule,
    build_ft_schedule,
    build_plain_schedule,
)
from repro.core.spmd_sort import (
    SpmdSortResult,
    run_schedule_spmd,
    spmd_fault_tolerant_sort,
)
from repro.core.partition_fast import mincut_batch, mincut_distribution_fast
from repro.core.partition_trace import render_cutting_tree, trace_cutting_tree
from repro.core.recovery import RecoveryReport, sort_with_midrun_fault
from repro.core.cost import (
    paper_worst_case_time,
    partition_work_bound,
    utilization_proposed,
    utilization_max_subcube,
)

__all__ = [
    "CheckingTree",
    "FtSortResult",
    "PartitionResult",
    "RecoveryReport",
    "SelectionResult",
    "SortSchedule",
    "SpmdSortResult",
    "mincut_batch",
    "mincut_distribution_fast",
    "render_cutting_tree",
    "sort_with_midrun_fault",
    "trace_cutting_tree",
    "build_ft_schedule",
    "build_plain_schedule",
    "run_schedule_spmd",
    "spmd_fault_tolerant_sort",
    "choose_dangling_w",
    "extra_comm_cost",
    "fault_free_bitonic_sort",
    "fault_tolerant_sort",
    "fault_tolerant_sort_batch",
    "find_min_cuts",
    "is_single_fault_partition",
    "max_dangling_bound",
    "paper_worst_case_time",
    "partition_work_bound",
    "plan_partition",
    "select_cut_sequence",
    "single_fault_bitonic_sort",
    "utilization_max_subcube",
    "utilization_proposed",
]
