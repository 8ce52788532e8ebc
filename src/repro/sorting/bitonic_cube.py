"""Block bitonic sort across the nodes of a (sub)hypercube.

This is the parallel sorting workhorse: Batcher's bitonic network applied
to *blocks*, with every comparator realized as the half-traffic
compare-split of :mod:`repro.sorting.merge`.  By the classical blockwise
network theorem (replace each comparator of a sorting network by an exact
merge-split and any arrangement of sorted blocks gets globally sorted), the
result is sorted in *logical position order* regardless of the initial
block arrangement, as long as each block is internally sorted.

Dead nodes
----------
The paper's single-fault insight (Section 2.1): a dead (faulty or dangling)
processor holding zero keys behaves exactly like a block of sentinel keys
*if* the sentinels would sit still at its position through every stage of
the network.  That holds only at logical position 0 — the one position
whose comparator direction bit is constant through all stages, and whose
enclosing sub-block is first (hence sorted in the overall direction) at
every stage — with ``-inf`` sentinels in an ascending network and ``+inf``
in a descending one.  This is exactly why the paper XOR-reindexes the fault
to address 0, and why a *descending* subcube must run a direction-inverted
network rather than an ascending network read backwards (a dead node at the
top position is **not** exact; the test suite pins this down).

Block representation
--------------------
Blocks are canonically ascending.  After an ascending sort, logical
position ``l`` holds content-rank ``l``'s chunk; after a descending sort it
holds content-rank ``(2**q - 1) - l``'s chunk (chunks reversed across
positions, each chunk still ascending inside) — equivalent to the paper's
genuinely-descending layout up to free local reversals, with identical
communication pattern and cost.

The phase engine's sorts run their networks as programs built from the
plan (:mod:`repro.core.schedule`), whose substages batch every subcube's
pairs into one :func:`run_exchange_jobs` call; :func:`block_bitonic_sort`
sorts one logical cube of blocks (the maximal fault-free subcube
baseline).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.faults.injectors import active_comparison
from repro.kernels import resolve_backend
from repro.simulator.phases import PhaseMachine

__all__ = [
    "block_bitonic_sort",
    "exchange_pair",
    "run_exchange_jobs",
    "substage_pairs",
]


def substage_pairs(q: int, i: int, j: int, descending: bool = False) -> list[tuple[int, int, bool]]:
    """Comparator pairs of bitonic substage ``(i, j)`` on ``2**q`` positions.

    Returns ``(low_logical, high_logical, low_keeps_min)`` triples: at merge
    stage ``i`` (``0 <= i < q``), substage dimension ``j`` (``i >= j >= 0``),
    position ``l`` (bit ``j`` clear) pairs with ``l | 2**j``; in the
    ascending network the pair sorts ascending iff bit ``i + 1`` of ``l``
    is 0, and the descending network inverts every direction.
    """
    if not 0 <= i < q or not 0 <= j <= i:
        raise ValueError(f"invalid substage (i={i}, j={j}) for q={q}")
    pairs = []
    for low in range(1 << q):
        if (low >> j) & 1:
            continue
        high = low | (1 << j)
        low_keeps_min = ((low >> (i + 1)) & 1) == 0
        if descending:
            low_keeps_min = not low_keeps_min
        pairs.append((low, high, low_keeps_min))
    return pairs


def _charge_exchange(
    machine: PhaseMachine,
    addr_low: int,
    addr_high: int,
    k: int,
    hops: int | None,
    probe: bool,
) -> int:
    """Charge one executed (non-skipped) compare-split, per the paper's model.

    Returns the number of messages exchanged (the caller accumulates the
    obs counters for the whole phase and flushes them once).
    """
    first_leg = (k + 1) // 2
    return_leg = k // 2
    # Half-exchange protocol: both sides ship half simultaneously, then
    # return the losers simultaneously (full-duplex links; each swap leg
    # costs one transfer, matching the paper's single t_s/r term per leg).
    machine.charge_swap(addr_low, addr_high, first_leg, hops=hops)
    if return_leg:
        machine.charge_swap(addr_low, addr_high, return_leg, hops=hops)
    # Pairwise comparisons: ceil(k/2) at one endpoint, floor(k/2) at the
    # other; then each merges its two runs at (k - 1) comparisons (the
    # paper's step-7(c) charge).
    machine.charge_compute(addr_low, first_leg + max(k - 1, 0))
    machine.charge_compute(addr_high, return_leg + max(k - 1, 0))
    return (2 if probe else 0) + 2 + (2 if return_leg else 0)


def run_exchange_jobs(
    machine: PhaseMachine,
    jobs: Sequence[tuple[int, int, bool, int | None]],
    kernels=None,
    probe: bool = True,
) -> None:
    """Execute the compare-splits of one parallel phase, batched.

    ``jobs`` holds ``(addr_low, addr_high, low_keeps_min, hops)`` tuples
    over *disjoint* node pairs; the call must happen inside an open machine
    phase.  Probes, skip decisions, and every cost charge are evaluated
    per pair exactly as :func:`exchange_pair` does — only the block data
    movement is delegated to the kernel backend, which receives every
    surviving pair of the substage stacked into one batch (live blocks
    all have one size).  Accounting is order-independent inside a phase
    (the clock advances by the per-node maximum at the barrier), so
    batching is invisible to the machine.
    """
    kern = resolve_backend(kernels)
    # Comparison-fault universes flip probe verdicts too — a lying probe
    # misroutes a whole block, which is exactly what the tolerance-aware
    # oracle budgets for.  The hash is symmetric in the boundary pair, so
    # the compiled skip vector and the SPMD partners decide identically.
    inj = active_comparison()
    # Obs counters accumulate locally and flush once per call — this
    # function runs once per substage, and per-pair metric increments were
    # measurably hot on large campaigns.
    skipped = 0
    messages = 0
    live: list[tuple[int, int, bool, int | None, np.ndarray, np.ndarray]] = []
    for addr_low, addr_high, low_keeps_min, hops in jobs:
        a = machine.get_block(addr_low)
        b = machine.get_block(addr_high)
        if a.size == 0 or b.size == 0:
            # Dead-node comparator: the live partner keeps its block and
            # nothing is charged ("keeps its elements without doing any
            # operation").
            continue
        if probe:
            # Boundary exchange: each side ships the key its partner needs
            # to decide whether any element must move (full-duplex).
            machine.charge_swap(addr_low, addr_high, 1, hops=hops)
            machine.charge_compute(addr_low, 1)
            machine.charge_compute(addr_high, 1)
            if low_keeps_min:
                skip = a[-1] <= b[0]
            else:
                skip = b[-1] <= a[0]
            if inj is not None:
                boundary_hi, boundary_lo = (a[-1], b[0]) if low_keeps_min else (b[-1], a[0])
                if inj.flip_one(boundary_hi, boundary_lo, kind="probe"):
                    skip = not skip
            if skip:
                skipped += 1
                messages += 2
                continue
        live.append((addr_low, addr_high, low_keeps_min, hops, a, b))
    if live:
        # Row t's min-keeping side goes into X, the other into Y.
        x = np.stack([a if km else b for _, _, km, _, a, b in live])
        y = np.stack([b if km else a for _, _, km, _, a, b in live])
        lows, highs = kern.split_blocks(x, y)
        for t, (addr_low, addr_high, km, hops, a, b) in enumerate(live):
            min_addr, max_addr = (addr_low, addr_high) if km else (addr_high, addr_low)
            machine.blocks[min_addr] = lows[t]
            machine.blocks[max_addr] = highs[t]
            messages += _charge_exchange(
                machine, addr_low, addr_high, int(a.size), hops, probe
            )
    if machine.obs.enabled and (messages or skipped or live):
        m = machine.obs.metrics
        if live:
            m.inc("sort.cx.executed", len(live))
        if skipped:
            m.inc("sort.cx.skipped", skipped)
        if messages:
            m.inc("sort.messages", messages)


def exchange_pair(
    machine: PhaseMachine,
    addr_low: int,
    addr_high: int,
    low_keeps_min: bool,
    hops: int | None = 1,
    probe: bool = True,
    kernels=None,
) -> None:
    """One compare-split between two physical nodes, with cost charging.

    The node at ``addr_low`` ends with the smaller half of the union iff
    ``low_keeps_min``.  A pair with an empty side is the dead-node
    comparator: the live partner keeps its block and nothing is charged
    (the paper's "keeps its elements without doing any operation").

    With ``probe=True`` (default) the pair first exchanges one boundary key
    each way and skips the block exchange entirely when the blocks are
    already correctly split — the standard MIMD implementation trick that
    keeps measured time far below the oblivious worst case on the
    nearly-sorted data that Step 8's re-sorts see.  The paper's closed-form
    ``T`` charges the no-skip worst case (:mod:`repro.core.cost`); its
    *measured* Figure-7 curves, like ours, sit well below it.  The
    comparator's result is unchanged either way, so network correctness is
    unaffected.

    Must be called inside an open machine phase.
    """
    run_exchange_jobs(
        machine,
        [(addr_low, addr_high, low_keeps_min, hops)],
        kernels=kernels,
        probe=probe,
    )


def block_bitonic_sort(
    machine: PhaseMachine,
    addr_of_logical: Sequence[int],
    dead_logical: frozenset[int] | set[int] = frozenset(),
    descending: bool = False,
    label: str = "bitonic",
    uniform_hops: int | None = 1,
    kernels=None,
) -> None:
    """Sort one logical cube of blocks, one machine phase per substage.

    Args:
        machine: the phase machine holding every node's block.
        addr_of_logical: physical address of each logical position; its
            length is a power of two.
        dead_logical: dead (key-less) logical positions, ``⊆ {0}``.
        descending: run the direction-inverted network.
        label: phase-label prefix.
        uniform_hops: hop count per exchange (1 when logical neighbors are
            physical neighbors, as with any XOR reindexing); ``None`` uses
            the machine's fault-aware metric.
        kernels: kernel backend (or name) for the exchange-splits; ``None``
            uses the process default.  Every substage's pairs go to one
            :func:`run_exchange_jobs` call.

    After an ascending sort, reading the blocks at ``addr_of_logical[0],
    addr_of_logical[1], ...`` and concatenating gives the keys in
    ascending order; a descending sort reverses the chunk ranks (see the
    module docstring).
    """
    size = len(addr_of_logical)
    if size == 0 or size & (size - 1):
        raise ValueError(f"addr_of_logical length must be a power of two, got {size}")
    dead = frozenset(dead_logical)
    if not dead <= {0}:
        raise ValueError(
            f"dead logical positions {sorted(dead)} must be within {{0}}; "
            "reindex the dead processor to logical address 0 first (the only "
            "position where the skip rule is exact)"
        )
    live_sizes = {machine.get_block(addr_of_logical[l]).size
                  for l in range(size) if l not in dead}
    if len(live_sizes) > 1:
        raise ValueError(f"live blocks must have equal sizes, got {sorted(live_sizes)}")
    for l in dead:
        if machine.get_block(addr_of_logical[l]).size:
            raise ValueError(f"dead logical position {l} holds keys")
    kern = resolve_backend(kernels)
    q = size.bit_length() - 1
    for i in range(q):
        for j in range(i, -1, -1):
            with machine.phase(f"{label}[i={i},j={j}]"):
                jobs = [
                    (addr_of_logical[low], addr_of_logical[high], low_keeps_min, uniform_hops)
                    for low, high, low_keeps_min in substage_pairs(q, i, j, descending)
                ]
                run_exchange_jobs(machine, jobs, kernels=kern)
