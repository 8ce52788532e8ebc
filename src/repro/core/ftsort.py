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

Orientation bookkeeping (see :mod:`repro.sorting.bitonic_cube`): subcube
``v``'s content layout direction alternates per the Step-8 rule, and the
implementation asserts the paper's invariant that every Step-7 exchange
happens between opposite-orientation subcubes — precisely the condition
under which the equal-``w`` pairing realizes an exact supernode
merge-split.

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

from repro.core.blocks import pad_and_chunk, strip_padding
from repro.core.partition import PartitionResult, find_min_cuts
from repro.core.selection import SelectionResult, select_cut_sequence
from repro.core.single_fault import (
    SingleFaultSortResult,
    fault_free_bitonic_sort,
    local_sort_blocks,
    single_fault_bitonic_sort,
)
from repro.cube.address import bit_of, validate_dimension
from repro.faults.linkplan import absorb_link_faults
from repro.faults.model import FaultKind, FaultSet
from repro.obs.spans import NULL_TRACER, PID_SIM, TID_ALGO
from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine
from repro.kernels import resolve_backend
from repro.sorting.bitonic_cube import (
    block_bitonic_merge_groups,
    block_bitonic_sort_groups,
    run_exchange_jobs,
)

__all__ = ["FtSortResult", "fault_tolerant_sort", "plan_partition"]


def plan_partition(
    n: int,
    faults: FaultSet | list[int] | tuple[int, ...],
    cut_dims: tuple[int, ...] | None = None,
) -> tuple[PartitionResult, SelectionResult]:
    """Partition + selection in one step (Sections 2.2 and 3).

    ``cut_dims`` overrides the Eq.-(1) choice with a specific sequence from
    Ψ (it must be feasible and of minimum length) — used by tests and the
    partition-explorer example.

    The un-overridden path is served from :data:`repro.plancache.PLAN_CACHE`
    (exact replay through the hypercube-symmetry canonical form; a
    transparent pass-through when the cache is disabled).
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


def _wrap_simple(res: SingleFaultSortResult, partition: PartitionResult | None) -> FtSortResult:
    return FtSortResult(
        sorted_keys=res.sorted_keys,
        elapsed=res.elapsed,
        output_order=res.output_order,
        machine=res.machine,
        partition=partition,
        selection=None,
        block_size=res.block_size,
    )


def _subcube_groups(
    selection: SelectionResult,
    dead_w: list[int],
    ascending: list[bool],
) -> list[tuple[list[int], frozenset[int], bool]]:
    """Logical-cube groups for a lockstep intra-subcube sort.

    For subcube ``v``, logical position ``l`` is the reindexed address
    ``rho = l`` at physical address ``combine(v, rho XOR dead_w[v])``; the
    dead processor always sits at logical 0 (the exact-skip position) and
    an odd-direction subcube runs the direction-inverted network.  After
    the sort, processor ``rho`` holds content-rank ``rho - 1`` (ascending
    subcube) or ``P - 1 - rho`` (descending).
    """
    split = selection.split
    p = 1 << selection.s
    groups: list[tuple[list[int], frozenset[int], bool]] = []
    for v in range(1 << selection.m):
        addrs = [split.combine(v, l ^ dead_w[v]) for l in range(p)]
        groups.append((addrs, frozenset({0}), not ascending[v]))
    return groups


def _mirror_subcubes(
    machine: PhaseMachine,
    selection: SelectionResult,
    dead_w: list[int],
    subcube_addrs: list[int],
    label: str,
) -> None:
    """Reverse the block placement of each listed subcube, in one phase.

    After a monotone merge, flipping a subcube's direction is a pure
    relabeling: processor ``rho`` and processor ``P - rho`` swap whole
    blocks (``rho = P/2`` keeps its block).  The swap pairs are disjoint,
    so all of them — across all flipping subcubes — form one parallel
    phase; each swap is a simultaneous full-duplex transfer over
    ``HD(rho, P - rho)`` hops (the dead-``w`` reindex XOR cancels out of
    the distance).
    """
    split = selection.split
    p = 1 << selection.s
    pairs = 0
    with machine.phase(label):
        for v in subcube_addrs:
            for rho in range(1, p // 2):
                peer = p - rho
                pa = split.combine(v, rho ^ dead_w[v])
                pb = split.combine(v, peer ^ dead_w[v])
                block_a = machine.get_block(pa)
                block_b = machine.get_block(pb)
                machine.blocks[pa] = block_b
                machine.blocks[pb] = block_a
                machine.charge_swap(pa, pb, int(block_a.size))
                pairs += 1
    if pairs and machine.obs.enabled:
        met = machine.obs.metrics
        met.inc("sort.mirror.pairs", pairs)
        met.inc("sort.messages", 2 * pairs)


def _emit_compiled_ft_steps(
    obs,
    machine: PhaseMachine,
    selection: SelectionResult,
    partition: PartitionResult,
    keys_count: int,
    workers: int,
    block_size: int,
) -> None:
    """Reconstruct the per-step obs spans from a compiled run's phase list.

    The compiled executor emits phase-level spans itself; the algorithm-step
    timeline (``step1`` .. ``step8``, ``step4`` stage groups, the ``ftsort``
    root) is recovered here by walking the phase records in order — their
    structure is fully determined by ``(m, s)``.  Start/end timestamps are
    re-accumulated with the same float addition sequence the machine clock
    used, so the spans match an interpreted run's exactly.
    """
    m, s = selection.m, selection.s
    phases = machine.phases

    def step(name: str, ts: float, dur: float, **args) -> None:
        obs.complete(name, ts=ts, dur=dur, cat="step", pid=PID_SIM, tid=TID_ALGO,
                     args=args or None)

    step("step1:partition+select", 0.0, 0.0,
         m=m, s=s, mincut=partition.mincut, cut_dims=list(selection.cut_dims))
    step("step2:distribute", 0.0, 0.0, workers=workers, block_size=block_size)
    t = 0.0
    idx = 0

    def advance(count: int) -> float:
        nonlocal t, idx
        for _ in range(count):
            t += phases[idx].duration
            idx += 1
        return t

    t0 = t
    advance(1)  # local-heapsort
    step("step3a:local-heapsort", t0, t - t0)
    t0 = t
    advance(s * (s + 1) // 2)  # intra-init substages
    step("step3b:intra-init", t0, t - t0)
    for i in range(m):
        t_stage = t
        for j in range(i, -1, -1):
            step(f"step5:partner[i={i},j={j}]", t, 0.0)
            step(f"step6:direction[i={i},j={j}]", t, 0.0)
            t7 = t
            advance(1)  # inter[i,j]
            step(f"step7:inter[i={i},j={j}]", t7, t - t7)
            t8 = t
            advance(s)  # intra[i,j]a merge pass
            if idx < len(phases) and phases[idx].label == f"intra[i={i},j={j}]b":
                advance(1)  # mirror fix-up
            step(f"step8:intra[i={i},j={j}]", t8, t - t8)
        step(f"step4:stage[i={i}]", t_stage, t - t_stage)
    step("ftsort", 0.0, machine.elapsed,
         n=selection.n, r=len(selection.faults), keys=keys_count)


def _compiled_ft_sort(
    keys: np.ndarray | list,
    fault_set: FaultSet,
    params: MachineParams | None,
    exact_counts: bool,
    obs,
    partition: PartitionResult,
    selection: SelectionResult,
) -> FtSortResult:
    """The r >= 2 partition sort through the compiled flat-array tier."""
    from repro.core.schedule import build_ft_program
    from repro.kernels.compiled import run_schedule_compiled

    sorted_keys, machine, block_size, program = run_schedule_compiled(
        partial(build_ft_program, selection),
        keys,
        fault_set,
        params=params,
        obs=obs,
        exact_counts=exact_counts,
        cache_kind="ft",
        cache_key=(selection.n, selection.cut_dims, selection.dead_of_subcube),
    )
    if obs.enabled:
        obs.name_thread(TID_ALGO, "algorithm steps", pid=PID_SIM)
        _emit_compiled_ft_steps(
            obs, machine, selection, partition,
            keys_count=int(np.asarray(keys).size),
            workers=program.workers,
            block_size=block_size,
        )
    return FtSortResult(
        sorted_keys=sorted_keys,
        elapsed=machine.elapsed,
        output_order=program.output_order,
        machine=machine,
        partition=partition,
        selection=selection,
        block_size=block_size,
    )


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
            intermediate block states.  A sort with an observer runs on
            the per-pair interpreter, whatever ``kernels`` is.
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
            provably correct (see the discussion below) and this is what
            reconciles measured time with the paper's Figure 7.
            ``"full-sort"``: the literal ``s(s+1)/2``-substage bitonic
            sort the paper's worst-case ``T`` charges — same result,
            slower for ``s > 3``; kept for the ablation benchmark.
        kernels: kernel backend (or name, see :mod:`repro.kernels`) that
            executes the sorting/merging inner loops; ``None`` = process
            default.  Results and every cost/obs counter are
            backend-independent.

    Returns:
        :class:`FtSortResult` with the globally sorted keys, the simulated
        time, and the partition/selection artifacts.

    Dispatch: ``r = 0`` runs the plain bitonic sort, ``r = 1`` the
    Section-2.1 single-fault sort, ``r >= 2`` the full partition path.

    Step-8 correctness argument (two-merge mode): after the Step-7
    exchange, the subcube holding the smaller halves holds, per processor,
    the pairwise minima of a bitonic (ascending-then-descending) virtual
    sequence; its block multisets therefore form a "valley" of zero-counts
    under any 0-1 threshold, which together with the dead node's ``-inf``
    sentinel block at reindexed address 0 is cyclically bitonic — exactly
    the precondition of an ascending skip-merge.  Symmetrically the larger
    half with a ``+inf`` sentinel is the precondition of a descending
    skip-merge.  The merge pass therefore sorts in the *side* direction;
    if the Step-8 rule wants the other direction, the content is exactly
    the mirror image of the target, so one parallel block-mirror phase
    (processor ``rho`` swaps with ``P - rho``) finishes the job with no
    comparisons at all.
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
    r = fault_set.r
    obs = obs if obs is not None else NULL_TRACER
    kernels = resolve_backend(kernels)

    if r == 0:
        return _wrap_simple(
            fault_free_bitonic_sort(keys, n, params, exact_counts, obs=obs,
                                    kernels=kernels, observer=observer),
            None,
        )
    if r == 1:
        partition = find_min_cuts(n, fault_set)
        res = single_fault_bitonic_sort(
            keys, n, fault_set.processors[0], params, exact_counts, obs=obs,
            kernels=kernels, observer=observer,
        )
        return _wrap_simple(res, partition)

    partition, selection = plan_partition(n, fault_set, cut_dims=cut_dims)
    if kernels.schedule_compiled and step8 == "two-merge" and observer is None:
        # Compiled flat-array tier: execute the plan's cached program
        # instead of interpreting per-pair.  The full-sort ablation and
        # per-phase observers are not modeled by the program builder /
        # executor; those fall through to the interpreter (which still uses
        # this backend's vectorized kernels).
        return _compiled_ft_sort(
            keys, fault_set, params, exact_counts, obs, partition, selection
        )
    split = selection.split
    m, s = selection.m, selection.s
    p = 1 << s
    flip = p - 1
    dead_w = [split.w_of(dead) for dead in selection.dead_of_subcube]

    machine = PhaseMachine(n, params=params, faults=fault_set, obs=obs)
    machine.on_phase_end = observer
    if obs.enabled:
        obs.name_thread(TID_ALGO, "algorithm steps", pid=PID_SIM)

    def _step(name: str, started_at: float, **args) -> None:
        obs.complete(
            name,
            ts=started_at,
            dur=machine.elapsed - started_at,
            cat="step",
            pid=PID_SIM,
            tid=TID_ALGO,
            args=args or None,
        )

    keys_arr = np.asarray(keys, dtype=float)
    workers = selection.working_processors
    chunks, block_size = pad_and_chunk(keys_arr, workers)
    if obs.enabled:
        # Steps 1-2 are host-side planning/distribution: no simulated cost,
        # recorded as zero-duration markers so the step report is complete.
        _step("step1:partition+select", machine.elapsed,
              m=m, s=s, mincut=partition.mincut, cut_dims=list(selection.cut_dims))
        _step("step2:distribute", machine.elapsed,
              workers=workers, block_size=block_size)

    # Steps 1-2: reindex and distribute.  Working processor order: subcube
    # address major, reindexed local address (1..P-1) minor.
    output_order: list[int] = []
    assignments: dict[int, np.ndarray] = {}
    chunk_iter = iter(chunks)
    for v in range(1 << m):
        for rho in range(1, p):
            phys = split.combine(v, rho ^ dead_w[v])
            output_order.append(phys)
            assignments[phys] = next(chunk_iter)

    # Step 3: local heapsort, then per-subcube bitonic sort; even subcube
    # addresses ascending, odd descending.
    t0 = machine.elapsed
    local_sort_blocks(machine, assignments, exact_counts=exact_counts, kernels=kernels)
    if obs.enabled:
        _step("step3a:local-heapsort", t0)
    ascending = [(v & 1) == 0 for v in range(1 << m)]
    t0 = machine.elapsed
    block_bitonic_sort_groups(
        machine, _subcube_groups(selection, dead_w, ascending), label="intra-init",
        kernels=kernels,
    )
    if obs.enabled:
        _step("step3b:intra-init", t0)

    # Steps 4-8: bitonic-like merge over the 2**m subcubes.
    for i in range(m):
        t_stage = machine.elapsed
        for j in range(i, -1, -1):
            if obs.enabled:
                # Steps 5-6 pick partners and comparison directions — pure
                # host-side bookkeeping with no simulated cost.
                _step(f"step5:partner[i={i},j={j}]", machine.elapsed)
                _step(f"step6:direction[i={i},j={j}]", machine.elapsed)
            t7 = machine.elapsed
            kept_min = [False] * (1 << m)  # which side each subcube took
            with machine.phase(f"inter[i={i},j={j}]"):
                jobs: list[tuple[int, int, bool, int | None]] = []
                for v_low in range(1 << m):
                    if (v_low >> j) & 1:
                        continue
                    v_high = v_low | (1 << j)
                    mask = bit_of(v_low, i + 1) if i + 1 < m else 0
                    # Paper Step 7(b): the subcube whose v_j equals mask
                    # keeps the smaller elements; v_low has v_j = 0.
                    low_keeps_min = mask == 0
                    kept_min[v_low] = low_keeps_min
                    kept_min[v_high] = not low_keeps_min
                    if ascending[v_low] == ascending[v_high]:
                        raise AssertionError(
                            "orientation invariant violated: subcubes "
                            f"{v_low}/{v_high} both "
                            f"{'ascending' if ascending[v_low] else 'descending'}"
                        )
                    for rho in range(1, p):
                        pa = split.combine(v_low, rho ^ dead_w[v_low])
                        pb = split.combine(v_high, rho ^ dead_w[v_high])
                        # hops=None: fault-aware metric (1 + HD of dead-w
                        # under partial faults; detours under total).
                        jobs.append((pa, pb, low_keeps_min, None))
                run_exchange_jobs(machine, jobs, kernels=kernels)
            if obs.enabled:
                _step(f"step7:inter[i={i},j={j}]", t7)
            t8 = machine.elapsed
            # Step 8: re-sort every subcube; target direction ascending iff
            # v_{j-1} == mask (v_{-1} = 0), which flips orientations into
            # opposition for the next substage along dimension j-1.
            for v in range(1 << m):
                mask_v = bit_of(v, i + 1) if i + 1 < m else 0
                prev_bit = bit_of(v, j - 1) if j >= 1 else 0
                ascending[v] = prev_bit == mask_v
            if step8 == "full-sort":
                block_bitonic_sort_groups(
                    machine,
                    _subcube_groups(selection, dead_w, ascending),
                    label=f"intra[i={i},j={j}]",
                    kernels=kernels,
                )
            else:
                # Merge pass — the direction the exchanged halves make
                # bitonic: ascending on the min-keeping side, descending on
                # the max-keeping side (see the docstring's argument).
                side_dir = [kept_min[v] for v in range(1 << m)]
                block_bitonic_merge_groups(
                    machine,
                    _subcube_groups(selection, dead_w, side_dir),
                    label=f"intra[i={i},j={j}]a",
                    kernels=kernels,
                )
                # Direction fix-up: subcubes whose Step-8 target direction
                # differs from the merge direction hold exactly mirrored
                # content; one parallel block-mirror phase relabels them.
                flips = [v for v in range(1 << m) if side_dir[v] != ascending[v]]
                if flips:
                    _mirror_subcubes(
                        machine, selection, dead_w, flips, label=f"intra[i={i},j={j}]b"
                    )
            if obs.enabled:
                _step(f"step8:intra[i={i},j={j}]", t8)
        if obs.enabled:
            _step(f"step4:stage[i={i}]", t_stage)

    if not all(ascending):
        raise AssertionError("final orientation must be ascending everywhere")

    if obs.enabled:
        _step("ftsort", 0.0, n=n, r=r, keys=int(keys_arr.size))
    gathered = (
        np.concatenate([machine.get_block(a) for a in output_order])
        if output_order
        else np.empty(0)
    )
    sorted_keys = strip_padding(gathered, int(keys_arr.size))
    return FtSortResult(
        sorted_keys=sorted_keys,
        elapsed=machine.elapsed,
        output_order=tuple(output_order),
        machine=machine,
        partition=partition,
        selection=selection,
        block_size=block_size,
    )
