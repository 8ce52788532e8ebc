"""The fault-tolerant sorting algorithm (paper Section 3, Steps 1-8).

Given ``Q_n`` with ``r <= n - 1`` faulty processors:

1. Partition ``Q_n`` along the selected cutting sequence ``D_β`` into
   ``2**m`` subcubes, each with exactly one *dead* processor (its fault, or
   a dangling processor in fault-free subcubes), and XOR-reindex each
   subcube so its dead processor has local address 0 (Step 1).
2. Distribute the ``M`` keys over the ``N' = 2**n - 2**m`` working
   processors (Step 2), padding with dummy ``+inf`` keys.
3. Locally heapsort every block, then bitonic-sort each subcube — ascending
   for even subcube addresses, descending for odd (Step 3).
4. Run the bitonic-like merge network over the subcubes-as-supernodes
   (Steps 4-8): for each stage ``i`` and dimension ``j = i .. 0``,
   corresponding reindexed processors of subcubes adjacent along ``j``
   compare-split their blocks (the subcube whose ``v_j`` equals
   ``mask = v_{i+1}`` keeps the smaller half), then every subcube re-sorts
   internally, ascending iff ``v_{j-1} == mask`` (``v_{-1} = 0``).

The sort is oblivious: every partner, direction, keeper, merge and
mirror follows from the plan ``(n, D_β, dead processors)``, never from the
keys, so Steps 3-8 are one program built from the plan
(:func:`repro.core.schedule.build_ft_program`, which also asserts the
paper's orientation invariant: every Step-7 exchange pairs
opposite-orientation subcubes).  The compiled backend executes it as
whole-array operations; the ``loop`` spec, and any sort with a phase
observer, walk it pair by pair
(:func:`repro.core.single_fault.run_program_interpreted`).

:func:`fault_tolerant_sort_batch` sorts several key sets, each on its own
faulty cube.  It plans each request as :func:`fault_tolerant_sort` does
(:func:`plan_sort`) and runs the requests whose programs are bound to one
skeleton as one executor call (:func:`run_planned`); each result equals
the request's own :func:`fault_tolerant_sort`.

Communication cost honesty: corresponding reindexed processors are
generally *not* physical neighbors — the detour equals the Hamming distance
of the two subcubes' dead-``w`` addresses plus one (the cut dimension).
Transfers are charged through the machine's fault-aware hop metric, so
*partial* faults reproduce the paper's ``1 + HD`` figure exactly and
*total* faults pay the extra routing penalty of Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.partition import PartitionResult, find_min_cuts
from repro.core.selection import SelectionResult, select_cut_sequence
from repro.core.schedule import CompiledSchedule, build_ft_program
from repro.core.single_fault import emit_cube_steps, plain_program_machine, run_program
from repro.cube.address import validate_dimension
from repro.faults.linkplan import absorb_link_faults
from repro.faults.model import FaultKind, FaultSet
from repro.obs.spans import PID_SIM, TID_ALGO
from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine
from repro.kernels import resolve_backend
from repro.kernels.compiled import program_machine

__all__ = [
    "FtSortResult",
    "PlannedSort",
    "fault_tolerant_sort",
    "fault_tolerant_sort_batch",
    "plan_partition",
    "plan_sort",
    "run_planned",
]


def plan_partition(
    n: int,
    faults: FaultSet | list[int] | tuple[int, ...],
    cut_dims: tuple[int, ...] | None = None,
) -> tuple[PartitionResult, SelectionResult]:
    """Partition + selection in one step (Sections 2.2 and 3).

    ``cut_dims`` overrides the Eq.-(1) choice with a specific sequence from
    Ψ (it must be feasible and of minimum length) — used by tests and the
    partition-explorer example.

    The un-overridden path is served from :data:`repro.plancache.PLAN_CACHE`,
    keyed on the exact fault set (a transparent pass-through when the
    cache is disabled).
    """
    from repro.plancache.cache import plan_with_cache

    if cut_dims is None:
        return plan_with_cache(n, faults)
    partition = find_min_cuts(n, faults)
    dims = tuple(cut_dims)
    if tuple(sorted(dims)) not in {tuple(sorted(d)) for d in partition.cutting_set}:
        raise ValueError(
            f"cut_dims {dims} is not a minimum cutting sequence; Ψ = "
            f"{[list(d) for d in partition.cutting_set]}"
        )
    forced = PartitionResult(
        n=partition.n,
        faults=partition.faults,
        mincut=partition.mincut,
        cutting_set=(dims,),
    )
    return partition, select_cut_sequence(forced)


@dataclass(frozen=True)
class FtSortResult:
    """Outcome of the fault-tolerant sort.

    Attributes:
        sorted_keys: the input keys in ascending order (padding stripped).
        elapsed: simulated execution time (machine cost units); excludes
            host distribution/collection, like the paper's measurements.
        output_order: physical addresses in output order — subcube address
            major, reindexed local address minor; concatenating their final
            blocks yields the ascending result.
        machine: the phase machine (final blocks, per-phase costs).
        partition: the Section-2.2 result (``mincut``, Ψ); ``None`` when
            ``r <= 1`` (no partition needed).
        selection: the resolved plan (``D_β``, dangling); ``None`` when
            ``r <= 1``.
        block_size: keys per working processor after padding.
    """

    sorted_keys: np.ndarray
    elapsed: float
    output_order: tuple[int, ...]
    machine: PhaseMachine
    partition: PartitionResult | None
    selection: SelectionResult | None
    block_size: int

    @property
    def working_processors(self) -> int:
        """Number of processors that held keys."""
        return len(self.output_order)


def _emit_ft_steps(
    obs,
    machine: PhaseMachine,
    selection: SelectionResult,
    partition: PartitionResult,
    keys_count: int,
    workers: int,
    block_size: int,
) -> None:
    """Record the per-step obs spans of a finished run from its phases.

    Each step is the run of consecutive phases its label prefix names:
    Step 3b is every ``intra-init[..]`` phase, Step 7 of ``(i, j)`` the
    ``inter[i=..,j=..]`` phase, and Step 8 every phase labelled
    ``intra[i=..,j=..]…`` (merge and mirror, or the full-sort ablation's
    substages).  Start and end times re-add the phase durations in the
    order the machine clock did, so the spans match the clock exactly.
    """
    m, s = selection.m, selection.s
    phases = machine.phases
    t, idx = 0.0, 0

    def step(name: str, ts: float, dur: float, **args) -> None:
        obs.complete(name, ts=ts, dur=dur, cat="step", pid=PID_SIM, tid=TID_ALGO,
                     args=args or None)

    def through(prefix: str) -> float:
        """Consume the phases labelled ``prefix…``; returns their start."""
        nonlocal t, idx
        start = t
        while idx < len(phases) and phases[idx].label.startswith(prefix):
            t += phases[idx].duration
            idx += 1
        return start

    # Steps 1-2 are host-side planning/distribution: no simulated cost,
    # recorded as zero-duration markers so the step report is complete.
    step("step1:partition+select", 0.0, 0.0,
         m=m, s=s, mincut=partition.mincut, cut_dims=list(selection.cut_dims))
    step("step2:distribute", 0.0, 0.0, workers=workers, block_size=block_size)
    t0 = through("local-heapsort")
    step("step3a:local-heapsort", t0, t - t0)
    t0 = through("intra-init[")
    step("step3b:intra-init", t0, t - t0)
    for i in range(m):
        t_stage = t
        for j in range(i, -1, -1):
            # Steps 5-6 pick partners and comparison directions — pure
            # host-side bookkeeping with no simulated cost.
            step(f"step5:partner[i={i},j={j}]", t, 0.0)
            step(f"step6:direction[i={i},j={j}]", t, 0.0)
            t0 = through(f"inter[i={i},j={j}]")
            step(f"step7:inter[i={i},j={j}]", t0, t - t0)
            t0 = through(f"intra[i={i},j={j}]")
            step(f"step8:intra[i={i},j={j}]", t0, t - t0)
        step(f"step4:stage[i={i}]", t_stage, t - t_stage)
    step("ftsort", 0.0, machine.elapsed,
         n=selection.n, r=len(selection.faults), keys=keys_count)


def fault_tolerant_sort(
    keys: np.ndarray | list,
    n: int,
    faults: FaultSet | list[int] | tuple[int, ...],
    params: MachineParams | None = None,
    fault_kind: FaultKind = FaultKind.PARTIAL,
    cut_dims: tuple[int, ...] | None = None,
    exact_counts: bool = False,
    step8: str = "two-merge",
    observer=None,
    obs=None,
    kernels=None,
) -> FtSortResult:
    """Sort ``keys`` on ``Q_n`` in the presence of up to ``n - 1`` faults.

    Args:
        keys: finite keys, any order.
        n: hypercube dimension.
        faults: faulty processor addresses (or a :class:`FaultSet`, whose
            kind then overrides ``fault_kind``).
        params: machine cost constants (default NCUBE/7).
        fault_kind: ``PARTIAL`` (VERTEX-style pass-through routing, the
            paper's measured mode) or ``TOTAL`` (routes must detour).
        cut_dims: optional override of the Eq.-(1) selection.
        exact_counts: exact heapsort comparison counting for local sorts.
        observer: optional ``f(machine, phase_record)`` callback fired after
            every phase — used by the Figure-6 walkthrough example to print
            intermediate block states.  A sort with an observer walks the
            plan's program pair by pair
            (:func:`~repro.core.single_fault.run_program_interpreted`),
            whatever ``kernels`` is; outputs, clock and counters do not
            change.
        obs: optional :class:`repro.obs.Tracer`.  When enabled, the sort
            records one simulated-time span per algorithm step (``step1``
            .. ``step8``, plus a root ``ftsort`` span) on the algorithm
            timeline, the phase machine records per-phase spans, and the
            logical ``sort.*`` counters accumulate (compare-exchanges
            executed/skipped, mirror pairs, messages).
        step8: how the intra-subcube re-sort of Step 8 is realized.
            ``"two-merge"`` (default): one bitonic merge pass in the
            direction the exchange's kept half makes bitonic, then — only
            for subcubes whose Step-8 target direction differs — a single
            block-mirror phase that reverses the placement; both steps are
            exact (the argument is beside the builder that realizes them,
            :func:`repro.core.schedule.build_ft_program`) and this is what
            reconciles measured time with the paper's Figure 7.
            ``"full-sort"``: the literal ``s(s+1)/2``-substage bitonic
            sort the paper's worst-case ``T`` charges — same result,
            slower for ``s > 3``; kept for the ablation benchmark.  Both
            modes are programs, run by either route.
        kernels: kernel backend (or name, see :mod:`repro.kernels`) that
            executes the sorting/merging inner loops; ``None`` = process
            default.  Results and every cost/obs counter are
            backend-independent.

    Returns:
        :class:`FtSortResult` with the globally sorted keys, the simulated
        time, and the partition/selection artifacts.

    Dispatch: ``r = 0`` runs the plain bitonic sort, ``r = 1`` the
    Section-2.1 single-fault sort, ``r >= 2`` the full partition path.
    """
    kernels = resolve_backend(kernels)
    planned = plan_sort(keys, n, faults, params=params, fault_kind=fault_kind,
                        cut_dims=cut_dims, step8=step8, obs=obs)
    return planned.result(*run_program(planned.machine, planned.program, planned.keys,
                                       exact_counts=exact_counts, kernels=kernels,
                                       observer=observer))


@dataclass(frozen=True)
class PlannedSort:
    """A sort whose Steps 1-2 are done and whose network has not run.

    Attributes:
        keys: the input keys, as a float array.
        machine: a fresh phase machine for the sort's faults, cost
            constants and tracer.
        program: the plan's compiled program, from the plan cache.
        partition: the Section-2.2 result; ``None`` when ``r = 0``.
        selection: the resolved plan; ``None`` when ``r <= 1`` (the sort
            runs the plain bitonic program).
    """

    keys: np.ndarray
    machine: PhaseMachine
    program: CompiledSchedule
    partition: PartitionResult | None
    selection: SelectionResult | None

    @property
    def group(self) -> tuple:
        """Sorts with equal groups run as one executor call: their programs
        are bound to one skeleton, their keys make blocks of one size, and
        their machines share cost constants."""
        return (id(self.program.skeleton), -(-self.keys.size // self.program.workers),
                self.machine.params)

    def result(self, sorted_keys, machine, block_size, program) -> FtSortResult:
        """The :class:`FtSortResult` of a finished run of this sort; records
        the step spans on the machine's tracer."""
        if machine.obs.enabled:
            if self.selection is None:
                emit_cube_steps(machine, int(self.keys.size))
            else:
                machine.obs.name_thread(TID_ALGO, "algorithm steps", pid=PID_SIM)
                _emit_ft_steps(machine.obs, machine, self.selection, self.partition,
                               keys_count=int(self.keys.size),
                               workers=program.workers, block_size=block_size)
        return FtSortResult(
            sorted_keys=sorted_keys,
            elapsed=machine.elapsed,
            output_order=program.output_order,
            machine=machine,
            partition=self.partition,
            selection=self.selection,
            block_size=block_size,
        )


def plan_sort(
    keys: np.ndarray | list,
    n: int,
    faults: FaultSet | list[int] | tuple[int, ...],
    params: MachineParams | None = None,
    fault_kind: FaultKind = FaultKind.PARTIAL,
    cut_dims: tuple[int, ...] | None = None,
    step8: str = "two-merge",
    obs=None,
) -> PlannedSort:
    """Steps 1-2 of :func:`fault_tolerant_sort`, which runs this first.

    Validates the fault set, plans the partition (``r >= 2``), fetches
    the plan's program from the plan cache and makes the machine that
    runs it; the arguments are :func:`fault_tolerant_sort`'s.  ``r = 0``
    and ``r = 1`` plan the plain bitonic program (Section 2.1).
    """
    validate_dimension(n)
    if step8 not in ("two-merge", "full-sort"):
        raise ValueError(f"step8 must be 'two-merge' or 'full-sort', got {step8!r}")
    if isinstance(faults, FaultSet):
        if faults.n != n:
            raise ValueError(f"fault set is for Q_{faults.n}, expected Q_{n}")
        fault_set = faults
    else:
        fault_set = FaultSet(n, faults, kind=fault_kind)
    if fault_set.links:
        # Link-fault extension: absorb each faulty link into a designated
        # endpoint (it becomes a dead processor for planning; routing still
        # sees the true link failures).  See repro.faults.linkplan.
        fault_set = absorb_link_faults(fault_set)
    if not fault_set.satisfies_paper_model():
        raise ValueError(
            f"{fault_set.r} faults on Q_{n} violate the paper's model "
            "(r <= n-1, or no normal processor fully surrounded by faults)"
        )
    keys = np.asarray(keys, dtype=float)
    if fault_set.r <= 1:
        faulty = fault_set.processors[0] if fault_set.r else None
        partition = find_min_cuts(n, fault_set) if fault_set.r else None
        machine, program = plain_program_machine(n, faulty, params, obs)
        return PlannedSort(keys, machine, program, partition, None)

    partition, selection = plan_partition(n, fault_set, cut_dims=cut_dims)
    full_sort = step8 == "full-sort"
    machine, program = program_machine(
        partial(build_ft_program, selection, full_sort=full_sort), fault_set,
        cache_kind="ft-full-sort" if full_sort else "ft",
        cache_key=(selection.n, selection.cut_dims, selection.dead_of_subcube),
        params=params, obs=obs,
    )
    return PlannedSort(keys, machine, program, partition, selection)


def run_planned(sorts: list[PlannedSort]) -> list[FtSortResult]:
    """Run planned sorts on the schedule executor, one call per
    :attr:`PlannedSort.group`; returns their results in order.

    A call runs its sorts' key matrices stacked, one probe, gather,
    compare-split and scatter per substage for all of them
    (:func:`repro.kernels.compiled.run_schedule_compiled`), and each
    result equals the sort's own :func:`fault_tolerant_sort` in every
    field.
    """
    # Looked up at call time: benchmarks/e2e/layers.py times the executor
    # by wrapping this module attribute.
    from repro.kernels import compiled

    groups: dict[tuple, list[int]] = {}
    for i, planned in enumerate(sorts):
        groups.setdefault(planned.group, []).append(i)
    results: list = [None] * len(sorts)
    for members in groups.values():
        runs = [(sorts[i].machine, sorts[i].program, sorts[i].keys) for i in members]
        for i, out in zip(members, compiled.run_schedule_compiled(runs)):
            results[i] = sorts[i].result(*out)
    return results


def fault_tolerant_sort_batch(requests, kernels=None) -> list[FtSortResult]:
    """Sort several key sets, each on its own faulty cube.

    Args:
        requests: ``(keys, n, faults)`` triples, as
            :func:`fault_tolerant_sort` takes them.
        kernels: kernel backend (or name); ``None`` = process default.

    Returns:
        One :class:`FtSortResult` per request, in order; result ``i``
        equals ``fault_tolerant_sort(keys_i, n_i, faults_i,
        kernels=kernels)`` in every field.

    On a backend with a schedule executor (``compiled``) every request is
    planned with :func:`plan_sort`, and requests whose programs are bound
    to one skeleton with blocks of one size run as one executor call
    (:func:`run_planned`): after XOR reindexing, Steps 3-8 are one network
    per ``(n, m, step8)``, and a fault set changes only where rows land
    and what the pairs' hops cost.  With any other backend each request
    runs on its own.
    """
    kernels = resolve_backend(kernels)
    if not kernels.schedule_compiled:
        return [fault_tolerant_sort(keys, n, faults, kernels=kernels)
                for keys, n, faults in requests]
    return run_planned([plan_sort(keys, n, faults) for keys, n, faults in requests])
