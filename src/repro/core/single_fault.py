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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import pad_and_chunk, strip_padding
from repro.cube.address import validate_address, validate_dimension
from repro.faults.model import FaultSet
from repro.kernels import resolve_backend
from repro.obs.spans import NULL_TRACER, PID_SIM, TID_ALGO
from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine
from repro.sorting.bitonic_cube import block_bitonic_sort
from repro.sorting.heapsort import heapsort_comparisons_worst_case

__all__ = ["SingleFaultSortResult", "single_fault_bitonic_sort", "fault_free_bitonic_sort"]


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


def _run_cube_sort_compiled(
    keys: np.ndarray | list,
    n: int,
    faulty: int | None,
    params: MachineParams | None,
    exact_counts: bool,
    obs,
) -> SingleFaultSortResult:
    """The r <= 1 cube sort through the compiled flat-array tier.

    Same result object, phase records, clock, and obs counters as the
    interpreted path — just executed from the cached plain program (see
    :mod:`repro.kernels.compiled`).
    """
    from repro.core.schedule import build_plain_program
    from repro.kernels.compiled import run_schedule_compiled

    fault_set = FaultSet(n, () if faulty is None else (faulty,))
    sorted_keys, machine, block_size, program = run_schedule_compiled(
        lambda hops_of: build_plain_program(n, faulty),
        keys,
        fault_set,
        params=params,
        obs=obs,
        exact_counts=exact_counts,
        cache_kind="plain",
        cache_key=(n, faulty),
    )
    if obs.enabled:
        obs.name_thread(TID_ALGO, "algorithm steps", pid=PID_SIM)
        t_local = machine.phases[0].duration if machine.phases else 0.0
        obs.complete("step3a:local-heapsort", ts=0.0, dur=t_local,
                     cat="step", pid=PID_SIM, tid=TID_ALGO)
        obs.complete("step3b:bitonic", ts=t_local, dur=machine.elapsed - t_local,
                     cat="step", pid=PID_SIM, tid=TID_ALGO)
        obs.complete("ftsort", ts=0.0, dur=machine.elapsed, cat="step",
                     pid=PID_SIM, tid=TID_ALGO,
                     args={"n": n, "r": fault_set.r, "keys": int(np.asarray(keys).size)})
    return SingleFaultSortResult(
        sorted_keys=sorted_keys,
        elapsed=machine.elapsed,
        output_order=program.output_order,
        machine=machine,
        block_size=block_size,
    )


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
    obs = obs if obs is not None else NULL_TRACER
    kern = resolve_backend(kernels)
    if kern.schedule_compiled and observer is None:
        # The compiled executor does not model per-phase observers; with
        # one, the sort runs on the interpreter (with this backend's
        # vectorized kernels), as fault_tolerant_sort does for r >= 2.
        return _run_cube_sort_compiled(keys, n, faulty, params, exact_counts, obs)
    size = 1 << n
    fault_set = FaultSet(n, () if faulty is None else (faulty,))
    machine = PhaseMachine(n, params=params, faults=fault_set, obs=obs)
    machine.on_phase_end = observer
    mask = 0 if faulty is None else faulty
    # Logical position l lives on physical node l XOR mask; the fault sits
    # at logical 0 and is skipped.
    addr_of_logical = [l ^ mask for l in range(size)]
    dead_logical = frozenset() if faulty is None else frozenset({0})
    workers = size - (0 if faulty is None else 1)
    keys_arr = np.asarray(keys, dtype=float)
    chunks, block_size = pad_and_chunk(keys_arr, workers)
    assignments: dict[int, np.ndarray] = {}
    chunk_iter = iter(chunks)
    for l in range(size):
        if l in dead_logical:
            continue
        assignments[addr_of_logical[l]] = next(chunk_iter)
    obs = obs if obs is not None else NULL_TRACER
    if obs.enabled:
        obs.name_thread(TID_ALGO, "algorithm steps", pid=PID_SIM)
    t0 = machine.elapsed
    local_sort_blocks(machine, assignments, exact_counts=exact_counts, kernels=kernels)
    if obs.enabled:
        obs.complete("step3a:local-heapsort", ts=t0, dur=machine.elapsed - t0,
                     cat="step", pid=PID_SIM, tid=TID_ALGO)
    t0 = machine.elapsed
    block_bitonic_sort(machine, addr_of_logical, dead_logical=dead_logical, kernels=kernels)
    if obs.enabled:
        obs.complete("step3b:bitonic", ts=t0, dur=machine.elapsed - t0,
                     cat="step", pid=PID_SIM, tid=TID_ALGO)
        obs.complete("ftsort", ts=0.0, dur=machine.elapsed, cat="step",
                     pid=PID_SIM, tid=TID_ALGO,
                     args={"n": n, "r": fault_set.r, "keys": int(np.asarray(keys).size)})
    output_order = tuple(addr_of_logical[l] for l in range(size) if l not in dead_logical)
    gathered = np.concatenate([machine.get_block(a) for a in output_order]) if workers else np.empty(0)
    sorted_keys = strip_padding(gathered, int(keys_arr.size))
    return SingleFaultSortResult(
        sorted_keys=sorted_keys,
        elapsed=machine.elapsed,
        output_order=output_order,
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
            after every phase; a sort with one runs on the interpreter.

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
