"""Message-passing (SPMD) execution of the sorting schedules.

This is the full-fidelity realization of the paper's algorithm: every
processor runs its own program on the discrete-event machine
(:class:`repro.simulator.spmd.SpmdMachine`), holding only its local block
and exchanging real routed messages — the half-traffic compare-split
protocol of Section 2.1/Step 7 at the message level:

1. *probe*: partners swap one boundary key and both decide (with the same
   comparison) whether any payload must move;
2. *halves*: the low partner sends its bottom ``ceil(k/2)`` keys, the high
   partner its bottom ``floor(k/2)``; each side compares the keys it now
   holds pairwise (``a_i`` against ``b_{k-1-i}``);
3. *returns*: the losers travel back and each side merges its two runs.

Link contention, store-and-forward hops, fault-aware routing (VERTEX-style
pass-through for partial faults, adaptive detours for total faults) all
come from the event engine — nothing is abstracted.  This backend runs
the plan's :class:`~repro.core.schedule.SortSchedule`; the phase engine
runs the program that schedule lowers to, array for array.  The test
suite runs one plan through both and demands identical sorted output,
which is the cross-validation DESIGN.md promises.

``--kernels compiled`` has no whole-schedule fast path here: the SPMD
engine's point is per-processor message fidelity, which a flattened
key-matrix program would bypass.  The compiled backend therefore runs
its vectorized block kernels here (local sorts, duels, run merges), and
results stay identical to ``loop``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import pad_and_chunk, strip_padding
from repro.core.ftsort import plan_partition
from repro.faults.injectors import active_comparison
from repro.core.schedule import SortSchedule
from repro.cube.address import validate_dimension
from repro.plancache.cache import cached_ft_schedule, cached_plain_schedule
from repro.faults.linkplan import absorb_link_faults
from repro.faults.model import FaultKind, FaultSet
from repro.kernels import resolve_backend
from repro.simulator.params import MachineParams
from repro.simulator.spmd import Proc, SpmdMachine

__all__ = ["SpmdSortResult", "run_schedule_spmd", "spmd_fault_tolerant_sort"]


@dataclass(frozen=True)
class SpmdSortResult:
    """Outcome of a message-level sort run.

    Attributes:
        sorted_keys: the input keys in ascending order.
        finish_time: simulated completion time (max over processor clocks).
        machine: the SPMD machine (per-rank clocks, engine statistics).
        schedule: the executed schedule.
        blocks: final block of every working processor.
    """

    sorted_keys: np.ndarray
    finish_time: float
    machine: SpmdMachine
    schedule: SortSchedule
    blocks: dict[int, np.ndarray]


def _cx_program_step(proc: Proc, block: np.ndarray, partner: int, i_am_low: bool,
                     keep_min: bool, tag_base: int):
    """Generator fragment: one compare-exchange with ``partner``.

    Returns the rank's new block.  ``keep_min`` refers to the *low* side;
    the high side keeps the complement.
    """
    k = int(block.size)
    obs = proc.obs
    # Leg 0 — probe.
    my_boundary = float(block[-1] if (i_am_low == keep_min) else block[0])
    yield proc.send(partner, payload=my_boundary, size=1, tag=tag_base)
    other_boundary = yield proc.recv(src=partner, tag=tag_base)
    yield proc.compute(1)
    if obs.enabled:
        obs.metrics.inc("sort.messages")
    if i_am_low == keep_min:
        # I keep the small side: skip if my max <= partner's min.
        skip = my_boundary <= other_boundary
    else:
        skip = other_boundary <= my_boundary
    inj = active_comparison()
    if inj is not None and inj.flip_one(
        my_boundary, other_boundary, kind="probe", record=i_am_low
    ):
        # Lying probe comparator: the flip hash is symmetric in the two
        # boundary keys, so both partners reach the same wrong verdict —
        # no protocol divergence, just a misrouted (or spurious) exchange.
        # Only the low side records the lie, mirroring the pair's logical
        # counters.
        skip = not skip
    if skip:
        # The pair's logical counters are recorded once, on the low side.
        if obs.enabled and i_am_low:
            obs.metrics.inc("sort.cx.skipped")
        return block

    # Leg 1 — halves.  Pairing: low_i against high_{k-1-i}.  The low side
    # evaluates pairs i in [h, k) (needs high's bottom k-h keys), the high
    # side pairs i in [0, h) (needs low's bottom h keys).
    h = (k + 1) // 2
    if i_am_low:
        send_part = block[:h]
        keep_part = block[h:]
    else:
        send_part = block[: k - h]
        keep_part = block[k - h :]
    # Payloads are zero-copy views: every consumer treats message arrays as
    # read-only (kernels return fresh arrays; blocks are rebound, never
    # written through), so slices of the live block ship as-is.
    yield proc.send(partner, payload=send_part, size=int(send_part.size), tag=tag_base + 1)
    received = yield proc.recv(src=partner, tag=tag_base + 1)
    if obs.enabled:
        obs.metrics.inc("sort.messages")

    # Pairwise comparisons.  For the low side: my keep_part is a[h:k]
    # ascending; partner's bottom is b[0:k-h] ascending; pair a_i with
    # b_{k-1-i} — the kernel reverses the received run internally and
    # hands back both winners and losers as ascending runs.
    mine = keep_part
    yield proc.compute(int(mine.size))
    winners_are_min = keep_min if i_am_low else not keep_min
    winners, losers = proc.kernels.cx_winners_losers(
        mine, np.asarray(received), winners_are_min
    )

    # Leg 2 — return the losers; receive the partner's losers.
    yield proc.send(partner, payload=losers, size=int(losers.size), tag=tag_base + 2)
    returned = yield proc.recv(src=partner, tag=tag_base + 2)
    if obs.enabled:
        obs.metrics.inc("sort.messages")
        if i_am_low:
            obs.metrics.inc("sort.cx.executed")

    merged = proc.kernels.merge_runs(winners, np.asarray(returned))
    yield proc.compute(max(int(merged.size) - 1, 0))  # step 7(c) merge
    return merged


def _mirror_program_step(proc: Proc, block: np.ndarray, partner: int, tag: int):
    """Generator fragment: one Step-8 mirror swap of whole blocks with
    ``partner``.  Returns the partner's block.  The pair is counted once,
    on its lower-addressed rank."""
    yield proc.send(partner, payload=block, size=int(block.size), tag=tag)
    block = np.asarray((yield proc.recv(src=partner, tag=tag)))
    if proc.obs.enabled:
        proc.obs.metrics.inc("sort.messages")
        if proc.rank < partner:
            proc.obs.metrics.inc("sort.mirror.pairs")
    return block


def _rank_ops(schedule: SortSchedule) -> dict[int, list[tuple[int, tuple]]]:
    """Each working rank's part of ``schedule``: ``(substage index, op)``
    in execution order, where ``op`` is ``("cx", partner, i_am_low,
    keep_min)`` or ``("mirror", partner)``."""
    plan: dict[int, list[tuple[int, tuple]]] = {rank: [] for rank in schedule.output_order}
    for idx, substage in enumerate(schedule.substages):
        for pair in substage.pairs:
            if substage.kind == "cx":
                plan[pair.low].append((idx, ("cx", pair.high, True, pair.keep_min)))
                plan[pair.high].append((idx, ("cx", pair.low, False, pair.keep_min)))
            else:
                plan[pair.low].append((idx, ("mirror", pair.high)))
                plan[pair.high].append((idx, ("mirror", pair.low)))
    return plan


def _make_program(schedule: SortSchedule, blocks: dict[int, np.ndarray], kernels=None):
    """Build the per-rank SPMD program executing ``schedule``.

    ``blocks`` maps rank -> initial unsorted block and is updated in place
    with the final blocks (the harness reads it after the run).  The local
    sorts (paper step 3, exact heapsort counts) are precomputed here as
    one 2-D batch — all blocks share one size; each program charges its
    own exact count at the same point of its timeline.
    """
    kern = resolve_backend(kernels)
    live_ranks = [rank for rank in sorted(blocks) if blocks[rank].size]
    local: dict[int, tuple[np.ndarray, int]] = {}
    if live_ranks:
        rows, comps = kern.sort_blocks_counted(
            np.stack([blocks[rank] for rank in live_ranks])
        )
        for t, rank in enumerate(live_ranks):
            local[rank] = (rows[t], int(comps[t]))

    plan = _rank_ops(schedule)

    def program(proc: Proc):
        block = blocks[proc.rank]
        # Local sort (paper step 3 first half) with exact heapsort counts.
        if block.size:
            block, comps = local[proc.rank]
            yield proc.compute(comps)
        for idx, op in plan[proc.rank]:
            if op[0] == "cx":
                _, partner, i_am_low, keep_min = op
                if block.size == 0:
                    continue
                block = yield from _cx_program_step(
                    proc, block, partner, i_am_low, keep_min, tag_base=idx * 4
                )
            else:
                block = yield from _mirror_program_step(proc, block, op[1], tag=idx * 4)
        blocks[proc.rank] = block

    return program


def run_schedule_spmd(
    schedule: SortSchedule,
    keys: np.ndarray | list,
    faults: FaultSet,
    params: MachineParams | None = None,
    obs=None,
    kernels=None,
) -> SpmdSortResult:
    """Execute a sort schedule on the discrete-event SPMD machine.

    ``obs`` is an optional :class:`repro.obs.Tracer` shared with the SPMD
    machine and its event engine; the programs additionally accumulate the
    same logical ``sort.*`` counters as the phase engine, which is what the
    cross-backend parity tests compare.  ``kernels`` selects the execution
    backend for the inner kernels (results and charges are
    backend-independent).
    """
    kernels = resolve_backend(kernels)
    keys_arr = np.asarray(keys, dtype=float)
    chunks, _ = pad_and_chunk(keys_arr, schedule.workers)
    blocks = {rank: chunk for rank, chunk in zip(schedule.output_order, chunks)}
    machine = SpmdMachine(schedule.n, faults=faults, params=params, obs=obs,
                          kernels=kernels)
    program = _make_program(schedule, blocks, kernels=kernels)
    finish = machine.run({rank: program for rank in schedule.output_order})
    gathered = (
        np.concatenate([blocks[rank] for rank in schedule.output_order])
        if schedule.workers
        else np.empty(0)
    )
    sorted_keys = strip_padding(gathered, int(keys_arr.size))
    return SpmdSortResult(
        sorted_keys=sorted_keys,
        finish_time=finish,
        machine=machine,
        schedule=schedule,
        blocks=blocks,
    )


def _schedule_for(n: int, fault_set: FaultSet) -> tuple[FaultSet, SortSchedule]:
    """Absorb link faults and fetch the cached comparator schedule.

    Returns the effective fault set (links folded into designated dead
    endpoints for planning; routing still sees the true link failures) and
    the schedule, dispatched like the phase engine: the plain bitonic
    sort for ``r = 0``, the single-fault sort for ``r = 1`` and the
    partitioned algorithm otherwise.  Shared by
    :func:`spmd_fault_tolerant_sort` and the host session, so re-planning
    after a detection reproduces exactly what the next attempt will run.
    """
    if fault_set.links:
        fault_set = absorb_link_faults(fault_set)
    if not fault_set.satisfies_paper_model():
        raise ValueError(f"{fault_set.r} faults on Q_{n} violate the paper's model")
    r = fault_set.r
    if r == 0:
        schedule = cached_plain_schedule(n, None)
    elif r == 1:
        schedule = cached_plain_schedule(n, fault_set.processors[0])
    else:
        _, selection = plan_partition(n, fault_set)
        schedule = cached_ft_schedule(selection)
    return fault_set, schedule


def spmd_fault_tolerant_sort(
    keys: np.ndarray | list,
    n: int,
    faults: FaultSet | list[int] | tuple[int, ...],
    params: MachineParams | None = None,
    fault_kind: FaultKind = FaultKind.PARTIAL,
    obs=None,
    kernels=None,
) -> SpmdSortResult:
    """Message-level fault-tolerant sort on ``Q_n`` (mirrors the phase engine).

    Dispatches exactly like
    :func:`repro.core.ftsort.fault_tolerant_sort`: plain bitonic for
    ``r = 0``, single-fault bitonic for ``r = 1``, and the partitioned
    algorithm otherwise.
    """
    validate_dimension(n)
    if isinstance(faults, FaultSet):
        fault_set = faults
    else:
        fault_set = FaultSet(n, faults, kind=fault_kind)
    if fault_set.n != n:
        raise ValueError(f"fault set is for Q_{fault_set.n}, expected Q_{n}")
    fault_set, schedule = _schedule_for(n, fault_set)
    return run_schedule_spmd(schedule, keys, fault_set, params=params, obs=obs,
                             kernels=kernels)
