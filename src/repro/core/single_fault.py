"""Bitonic sorting on a hypercube with at most one faulty processor (§2.1).

The paper's first observation: the bitonic sorting algorithm still works on
``Q_n`` with one faulty processor.  Distribute the ``M`` keys over the
``N - 1`` normal processors, treat the faulty processor as a dead node that
holds nothing, and let its compare-exchange partner skip the operation.
If the fault is not at address 0, XOR-reindex every processor with the
fault's address — the XOR relabeling maps hypercube neighbors to neighbors,
so the communication pattern is unchanged and the result lands sorted in
*reindexed* address order with the dead node first.

:func:`fault_free_bitonic_sort` is the ``r = 0`` special case (the plain
parallel bitonic sort, also used by the maximal fault-free subcube
baseline).

Both run the plan's program (:func:`repro.core.schedule.build_plain_program`),
as :func:`repro.core.ftsort.fault_tolerant_sort` runs its ``r >= 2``
programs, through one route choice, :func:`run_program`: the compiled
executor, or :func:`run_program_interpreted`, which walks the same program
pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import pad_and_chunk, strip_padding
from repro.core.schedule import build_plain_program
from repro.cube.address import validate_address, validate_dimension
from repro.faults.model import FaultSet
from repro.kernels import resolve_backend
from repro.kernels.compiled import program_machine
from repro.obs.spans import PID_SIM, TID_ALGO
from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine
from repro.sorting.bitonic_cube import run_exchange_jobs
from repro.sorting.heapsort import heapsort_comparisons_worst_case

__all__ = [
    "SingleFaultSortResult",
    "fault_free_bitonic_sort",
    "run_program",
    "run_program_interpreted",
    "single_fault_bitonic_sort",
]


@dataclass(frozen=True)
class SingleFaultSortResult:
    """Outcome of a (single-fault or fault-free) hypercube bitonic sort.

    Attributes:
        sorted_keys: the input keys in ascending order (padding stripped).
        elapsed: simulated execution time (machine cost units).
        output_order: physical addresses in output (reindexed) order; the
            concatenation of their blocks is the ascending result.
        machine: the phase machine (holds final blocks and cost breakdown).
        block_size: keys per working processor (after padding).
    """

    sorted_keys: np.ndarray
    elapsed: float
    output_order: tuple[int, ...]
    machine: PhaseMachine
    block_size: int


def local_sort_blocks(
    machine: PhaseMachine,
    assignments: dict[int, np.ndarray],
    label: str = "local-heapsort",
    exact_counts: bool = False,
    kernels=None,
) -> None:
    """Install and locally sort each processor's block, charging step-3 cost.

    Args:
        machine: target machine.
        assignments: physical address -> unsorted block.
        label: phase label.
        exact_counts: count comparisons by actually running the
            from-scratch heapsort (exact, slower); otherwise charge the
            paper's worst-case formula (the paper's own analysis charges
            the worst case) and only sort values.
        kernels: kernel backend (or name); ``None`` uses the process
            default.  The backend sorts every live block (all one size)
            as one 2-D batch — with ``exact_counts``, with per-block
            counts that match the scalar reference heapsort exactly.
    """
    kern = resolve_backend(kernels)
    with machine.phase(label):
        live: list[tuple[int, np.ndarray]] = []
        for addr, block in assignments.items():
            if block.size == 0:
                machine.set_block(addr, block)
            else:
                live.append((addr, block))
        if live:
            stacked = np.stack([b for _, b in live])
            if exact_counts:
                rows, counts = kern.sort_blocks_counted(stacked)
            else:
                rows = kern.sort_blocks(stacked)
                counts = [heapsort_comparisons_worst_case(stacked.shape[1])] * len(live)
            for t, (addr, _) in enumerate(live):
                machine.set_block(addr, rows[t])
                machine.charge_compute(addr, int(counts[t]))


def run_program_interpreted(machine: PhaseMachine, program, keys, exact_counts: bool = False,
                            kernels=None, observer=None):
    """Run a compiled program pair by pair on its phase machine.

    ``machine`` and ``program`` are as
    :func:`~repro.kernels.compiled.program_machine` makes and fetches
    them.  The executable spec of what
    :func:`repro.kernels.compiled.run_schedule_compiled` does with the same
    run: Step 3's local sorts through :func:`local_sort_blocks`, then one
    machine phase per substage, whose ``cx`` pairs go to
    :func:`run_exchange_jobs` with the min-keeper first and whose
    ``mirror`` pairs swap whole blocks, each pair charged over the
    program's hops.  The min-keeper takes the ceiling half of every
    exchange; each node is in one pair per phase and a phase lasts as long
    as its slowest node, so which endpoint takes it cannot move a clock or
    a counter.

    ``kernels`` executes the block kernels (``None`` = process default);
    ``observer`` is called as ``observer(machine, record)`` after every
    phase.  Returns what one run of :func:`run_schedule_compiled` returns:
    ``(sorted_keys, machine, block_size, program)``.
    """
    machine.on_phase_end = observer
    order = program.output_order
    keys_arr = np.asarray(keys, dtype=float)
    chunks, block_size = pad_and_chunk(keys_arr, program.workers)
    local_sort_blocks(machine, dict(zip(order, chunks)), exact_counts=exact_counts,
                      kernels=kernels)
    for sub in program.substages:
        pairs = [(order[a], order[b], h) for a, b, h in
                 zip(sub.a_rows.tolist(), sub.b_rows.tolist(), sub.hops.tolist())]
        with machine.phase(sub.label):
            if sub.kind == "cx":
                run_exchange_jobs(machine, [(a, b, True, h) for a, b, h in pairs],
                                  kernels=kernels)
            else:
                for a, b, h in pairs:
                    block_a, block_b = machine.get_block(a), machine.get_block(b)
                    machine.blocks[a], machine.blocks[b] = block_b, block_a
                    machine.charge_swap(a, b, int(block_a.size), hops=h)
        if sub.kind == "mirror" and pairs and machine.obs.enabled:
            met = machine.obs.metrics
            met.inc("sort.mirror.pairs", len(pairs))
            met.inc("sort.messages", 2 * len(pairs))
    gathered = np.concatenate([machine.get_block(a) for a in order]) if order else np.empty(0)
    return strip_padding(gathered, int(keys_arr.size)), machine, block_size, program


def run_program(machine: PhaseMachine, program, keys, exact_counts: bool, kernels, observer):
    """The phase engine's one route choice: the compiled backend without a
    phase observer runs the program on the schedule executor, as a batch
    of one, everything else walks it pair by pair
    (:func:`run_program_interpreted`).  ``kernels`` is a resolved backend.
    Both routes return ``(sorted_keys, machine, block_size, program)``.
    """
    if kernels.schedule_compiled and observer is None:
        # Looked up at call time: benchmarks/e2e/layers.py times the
        # executor by wrapping this module attribute.
        from repro.kernels import compiled

        return compiled.run_schedule_compiled(((machine, program, keys),),
                                              exact_counts=exact_counts)[0]
    return run_program_interpreted(machine, program, keys, exact_counts=exact_counts,
                                   kernels=kernels, observer=observer)


def plain_program_machine(n: int, faulty: int | None, params: MachineParams | None = None,
                          obs=None):
    """:func:`~repro.kernels.compiled.program_machine` for the full-cube
    bitonic sort on ``Q_n`` with dead processor ``faulty`` (or none)."""
    fault_set = FaultSet(n, () if faulty is None else (faulty,))
    return program_machine(lambda hops_of: build_plain_program(n, faulty), fault_set,
                           cache_kind="plain", cache_key=(n, faulty), params=params,
                           obs=obs)


def emit_cube_steps(machine: PhaseMachine, keys_count: int) -> None:
    """Record the step spans of a finished full-cube sort on its machine's
    tracer: the local sort, the bitonic network, and the root ``ftsort``
    span."""
    obs = machine.obs
    obs.name_thread(TID_ALGO, "algorithm steps", pid=PID_SIM)
    t_local = machine.phases[0].duration
    obs.complete("step3a:local-heapsort", ts=0.0, dur=t_local,
                 cat="step", pid=PID_SIM, tid=TID_ALGO)
    obs.complete("step3b:bitonic", ts=t_local, dur=machine.elapsed - t_local,
                 cat="step", pid=PID_SIM, tid=TID_ALGO)
    obs.complete("ftsort", ts=0.0, dur=machine.elapsed, cat="step",
                 pid=PID_SIM, tid=TID_ALGO,
                 args={"n": machine.n, "r": machine.faults.r, "keys": keys_count})


def _run_cube_sort(
    keys: np.ndarray | list,
    n: int,
    faulty: int | None,
    params: MachineParams | None,
    exact_counts: bool,
    obs=None,
    kernels=None,
    observer=None,
) -> SingleFaultSortResult:
    validate_dimension(n)
    machine, program = plain_program_machine(n, faulty, params, obs)
    sorted_keys, machine, block_size, program = run_program(
        machine, program, keys, exact_counts=exact_counts,
        kernels=resolve_backend(kernels), observer=observer,
    )
    if machine.obs.enabled:
        emit_cube_steps(machine, int(np.asarray(keys).size))
    return SingleFaultSortResult(
        sorted_keys=sorted_keys,
        elapsed=machine.elapsed,
        output_order=program.output_order,
        machine=machine,
        block_size=block_size,
    )


def single_fault_bitonic_sort(
    keys: np.ndarray | list,
    n: int,
    faulty: int,
    params: MachineParams | None = None,
    exact_counts: bool = False,
    obs=None,
    kernels=None,
    observer=None,
) -> SingleFaultSortResult:
    """Sort ``keys`` on ``Q_n`` with one faulty processor (paper §2.1).

    Args:
        keys: finite keys, any order.
        n: hypercube dimension (``n >= 1`` so a normal processor exists).
        faulty: address of the faulty processor.
        params: machine cost constants (default NCUBE/7).
        exact_counts: charge exact heapsort comparison counts for the local
            sorts instead of the paper's worst-case formula.
        kernels: kernel backend (or name); ``None`` = process default.
        observer: optional ``f(machine, phase_record)`` callback fired
            after every phase; a sort with one walks its program pair by
            pair (:func:`run_program_interpreted`).

    Returns:
        :class:`SingleFaultSortResult`; ``output_order`` starts at the
        fault's lowest reindexed neighbor and the dead node holds no keys.
    """
    validate_dimension(n)
    if n == 0:
        raise ValueError("Q_0 with a fault has no working processor")
    validate_address(faulty, n)
    return _run_cube_sort(keys, n, faulty, params, exact_counts, obs=obs,
                          kernels=kernels, observer=observer)


def fault_free_bitonic_sort(
    keys: np.ndarray | list,
    n: int,
    params: MachineParams | None = None,
    exact_counts: bool = False,
    obs=None,
    kernels=None,
    observer=None,
) -> SingleFaultSortResult:
    """Plain parallel block bitonic sort on a fault-free ``Q_n``.

    The thick-line baseline of the paper's Figure 7 (sorting on the
    maximal fault-free subcube) is this routine run on a smaller cube.
    ``observer`` is as for :func:`single_fault_bitonic_sort`.
    """
    return _run_cube_sort(keys, n, None, params, exact_counts, obs=obs,
                          kernels=kernels, observer=observer)
