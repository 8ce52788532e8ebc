"""Static comparator schedules for the sorting algorithms.

Every sort in this repository is *oblivious*: the sequence of
compare-exchange partners, directions, and mirror swaps depends only on the
machine configuration (dimension, fault plan) — never on key values.  That
makes the whole execution expressible as a static :class:`SortSchedule`,
which two independent backends execute:

* the phase-level engine (:func:`repro.core.ftsort.fault_tolerant_sort`
  executes an equivalent structure directly), and
* the message-passing SPMD machine (:mod:`repro.core.spmd_sort`), where
  every exchange is realized as routed messages on the discrete-event
  simulator.

Having one schedule produced by one builder and executed by both backends
is how the test suite proves the fast phase engine faithfully represents
the distributed execution.

Builders:

* :func:`build_plain_schedule` — fault-free or single-fault full-cube
  bitonic sort (paper Section 2.1).
* :func:`build_ft_schedule` — the full fault-tolerant algorithm for a
  resolved :class:`~repro.core.selection.SelectionResult` (Section 3,
  steps 3-8, two-merge Step 8).

Lowering:

:func:`lower_schedule` compiles a schedule into a :class:`CompiledSchedule`
— per-substage index arrays over a single ``(workers, block)`` key matrix —
which :func:`repro.kernels.compiled.run_schedule_compiled` executes as a
handful of numpy operations per substage (the ``--kernels compiled`` tier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.selection import SelectionResult
from repro.cube.address import bit_of, hamming_distance, validate_address, validate_dimension
from repro.sorting.bitonic_cube import substage_pairs

__all__ = [
    "CompiledSchedule",
    "CompiledSubstage",
    "CxPair",
    "SortSchedule",
    "Substage",
    "build_ft_schedule",
    "build_plain_schedule",
    "lower_schedule",
]


@dataclass(frozen=True)
class CxPair:
    """One paired step between two processors.

    In a ``"cx"`` substage this is a compare-exchange: ``low`` keeps the
    smaller half of the union iff ``keep_min`` (a real bool).  In a
    ``"mirror"`` substage the two sides swap whole blocks without comparing
    anything, so there is no min-keeper and ``keep_min`` must be ``None`` —
    mirror traffic is accounted (elements, hops, messages) but contributes
    zero comparisons.
    """

    low: int
    high: int
    keep_min: bool | None


@dataclass(frozen=True)
class Substage:
    """One barrier-separated parallel step.

    ``kind`` is ``"cx"`` (compare-exchange pairs) or ``"mirror"`` (whole
    blocks swapped between the listed pairs, no comparisons).

    ``uniform_hops`` is the hop count every pair of this substage is charged
    (1 when logical neighbors are physical neighbors, as with any XOR
    reindexing); ``None`` means the hop count is pair-dependent and must
    come from the executing machine's fault-aware metric (inter-subcube
    exchanges, mirror swaps).
    """

    label: str
    kind: str
    pairs: tuple[CxPair, ...]
    uniform_hops: int | None = 1

    def __post_init__(self) -> None:
        if self.kind not in ("cx", "mirror"):
            raise ValueError(f"unknown substage kind {self.kind!r}")
        seen: set[int] = set()
        for p in self.pairs:
            if p.low in seen or p.high in seen or p.low == p.high:
                raise ValueError(f"substage {self.label!r} pairs are not disjoint")
            if self.kind == "cx" and not isinstance(p.keep_min, bool):
                raise ValueError(
                    f"cx substage {self.label!r} needs a bool keep_min, got {p.keep_min!r}"
                )
            if self.kind == "mirror" and p.keep_min is not None:
                raise ValueError(
                    f"mirror substage {self.label!r} pairs must have keep_min=None "
                    "(a block swap has no min-keeper)"
                )
            seen.add(p.low)
            seen.add(p.high)

    def participants(self) -> set[int]:
        """Physical addresses taking part in this substage."""
        out: set[int] = set()
        for p in self.pairs:
            out.add(p.low)
            out.add(p.high)
        return out


@dataclass(frozen=True)
class SortSchedule:
    """A full oblivious sort execution plan.

    Attributes:
        n: hypercube dimension.
        output_order: working processors in block-placement order; chunk
            ``i`` of the input is installed on ``output_order[i]`` and the
            final ascending result is the concatenation of their blocks in
            this order.
        substages: the steps, in execution order.
    """

    n: int
    output_order: tuple[int, ...]
    substages: tuple[Substage, ...]

    @property
    def workers(self) -> int:
        """Number of processors holding keys."""
        return len(self.output_order)

    def comparator_count(self) -> int:
        """Total compare-exchange pairs across all cx substages.

        Mirror substages are excluded *by definition* — a mirror swap
        performs zero comparisons.  Their traffic is accounted separately:
        see :meth:`mirror_pair_count` and :meth:`worst_case_elements`.
        """
        return sum(len(s.pairs) for s in self.substages if s.kind == "cx")

    def mirror_pair_count(self) -> int:
        """Total block-swap pairs across all mirror substages."""
        return sum(len(s.pairs) for s in self.substages if s.kind == "mirror")

    def worst_case_elements(self, block_size: int) -> int:
        """Worst-case total element traffic for a run with this block size.

        Every cx pair ships 2 probe keys plus — when the probe does not
        skip — the full half-exchange both ways (``2 * block_size``
        elements); every mirror pair always swaps whole blocks
        (``2 * block_size``).  An actual run's
        ``machine.total_elements_sent()`` equals this minus
        ``2 * block_size`` per probe-skipped cx pair — the identity the
        honest-accounting tests pin down.  Zero when ``block_size`` is 0
        (empty blocks move nothing, probes included).
        """
        if block_size < 0:
            raise ValueError(f"block_size must be non-negative, got {block_size}")
        if block_size == 0:
            return 0
        cx = self.comparator_count()
        return cx * (2 + 2 * block_size) + self.mirror_pair_count() * 2 * block_size


def _cx_substage(
    label: str, entries: list[tuple[int, int, bool]], uniform_hops: int | None = 1
) -> Substage:
    return Substage(
        label=label,
        kind="cx",
        pairs=tuple(CxPair(a, b, k) for a, b, k in entries),
        uniform_hops=uniform_hops,
    )


def build_plain_schedule(n: int, faulty: int | None = None) -> SortSchedule:
    """Full-cube block bitonic sort, optionally with one dead processor.

    The fault (if any) is XOR-reindexed to logical 0 and its comparators
    are dropped (the partner "skips", Section 2.1).
    """
    validate_dimension(n)
    mask = 0
    if faulty is not None:
        validate_address(faulty, n)
        mask = faulty
        if n == 0:
            raise ValueError("Q_0 with a fault has no working processor")
    size = 1 << n
    addr_of_logical = [l ^ mask for l in range(size)]
    dead = {0} if faulty is not None else set()
    substages = []
    for i in range(n):
        for j in range(i, -1, -1):
            entries = [
                (addr_of_logical[low], addr_of_logical[high], keep_min)
                for low, high, keep_min in substage_pairs(n, i, j)
                if low not in dead and high not in dead
            ]
            substages.append(_cx_substage(f"bitonic[i={i},j={j}]", entries))
    output_order = tuple(addr_of_logical[l] for l in range(size) if l not in dead)
    return SortSchedule(n=n, output_order=output_order, substages=tuple(substages))


def build_ft_schedule(selection: SelectionResult) -> SortSchedule:
    """The fault-tolerant sort (steps 3-8) as a static schedule.

    Mirrors :func:`repro.core.ftsort.fault_tolerant_sort` in its default
    two-merge mode: initial per-subcube full bitonic sorts (alternating by
    subcube parity), then for every inter-subcube substage one
    compare-exchange step, one side-direction merge pass, and — where the
    Step-8 target direction flips — one mirror step.
    """
    split = selection.split
    m, s = selection.m, selection.s
    if s < 1:
        raise ValueError("fault-tolerant schedule needs subcubes of dimension >= 1")
    p = 1 << s
    dead_w = [split.w_of(d) for d in selection.dead_of_subcube]
    num_subcubes = 1 << m

    def phys(v: int, rho: int) -> int:
        return split.combine(v, rho ^ dead_w[v])

    substages: list[Substage] = []

    def add_intra_sort(ascending: list[bool], label: str) -> None:
        for i in range(s):
            for j in range(i, -1, -1):
                entries: list[tuple[int, int, bool]] = []
                for v in range(num_subcubes):
                    for low, high, keep_min in substage_pairs(
                        s, i, j, descending=not ascending[v]
                    ):
                        if low == 0 or high == 0:
                            continue  # dead processor at reindexed 0
                        entries.append((phys(v, low), phys(v, high), keep_min))
                substages.append(_cx_substage(f"{label}[i={i},j={j}]", entries))

    def add_intra_merge(directions: list[bool], label: str) -> None:
        i = s - 1
        for j in range(i, -1, -1):
            entries = []
            for v in range(num_subcubes):
                for low, high, keep_min in substage_pairs(
                    s, i, j, descending=not directions[v]
                ):
                    if low == 0 or high == 0:
                        continue
                    entries.append((phys(v, low), phys(v, high), keep_min))
            substages.append(_cx_substage(f"{label}[j={j}]", entries))

    # Step 3: initial per-subcube sorts, ascending iff subcube address even.
    ascending = [(v & 1) == 0 for v in range(num_subcubes)]
    add_intra_sort(ascending, "intra-init")

    # Steps 4-8.
    for i in range(m):
        for j in range(i, -1, -1):
            entries = []
            kept_min = [False] * num_subcubes
            for v_low in range(num_subcubes):
                if (v_low >> j) & 1:
                    continue
                v_high = v_low | (1 << j)
                mask = bit_of(v_low, i + 1) if i + 1 < m else 0
                low_keeps_min = mask == 0
                kept_min[v_low] = low_keeps_min
                kept_min[v_high] = not low_keeps_min
                for rho in range(1, p):
                    entries.append(
                        (phys(v_low, rho), phys(v_high, rho), low_keeps_min)
                    )
            # uniform_hops=None: corresponding reindexed processors are
            # generally not neighbors — hops come from the machine's
            # fault-aware metric (1 + HD of dead-w under partial faults).
            substages.append(
                _cx_substage(f"inter[i={i},j={j}]", entries, uniform_hops=None)
            )

            for v in range(num_subcubes):
                mask_v = bit_of(v, i + 1) if i + 1 < m else 0
                prev_bit = bit_of(v, j - 1) if j >= 1 else 0
                ascending[v] = prev_bit == mask_v
            side_dir = list(kept_min)
            add_intra_merge(side_dir, f"intra[i={i},j={j}]a")
            flips = [v for v in range(num_subcubes) if side_dir[v] != ascending[v]]
            if flips:
                swaps = []
                for v in flips:
                    for rho in range(1, p // 2):
                        swaps.append(CxPair(phys(v, rho), phys(v, p - rho), None))
                substages.append(
                    Substage(
                        label=f"intra[i={i},j={j}]b",
                        kind="mirror",
                        pairs=tuple(swaps),
                        uniform_hops=None,
                    )
                )

    output_order = tuple(
        phys(v, rho) for v in range(num_subcubes) for rho in range(1, p)
    )
    return SortSchedule(n=selection.n, output_order=output_order, substages=tuple(substages))


# -- lowering ---------------------------------------------------------------


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CompiledSubstage:
    """One substage lowered to flat index arrays over the key matrix.

    For ``kind == "cx"``, row ``a_rows[t]`` keeps the smaller half of its
    union with row ``b_rows[t]`` — the low/high vs min/max orientation of
    the source :class:`CxPair` is already resolved, so the executor needs no
    keep_min branching.  For ``kind == "mirror"``, the two rows swap whole
    blocks.  ``hops[t]`` is the routing distance the pair's transfers are
    charged over; ``uniform_hops`` is that distance when every pair shares
    it, else ``None``.  All arrays are read-only (compiled programs are
    cached and shared across runs).
    """

    label: str
    kind: str
    a_rows: np.ndarray
    b_rows: np.ndarray
    hops: np.ndarray
    uniform_hops: int | None = None


@dataclass(frozen=True)
class CompiledSchedule:
    """A :class:`SortSchedule` lowered to a flat array program.

    Execution state is one ``(workers, block)`` float matrix whose row
    ``t`` is the block of processor ``output_order[t]``; every substage is
    a gather/compute/scatter over that matrix (see
    :func:`repro.kernels.compiled.run_schedule_compiled`).
    """

    n: int
    output_order: tuple[int, ...]
    substages: tuple[CompiledSubstage, ...]

    @property
    def workers(self) -> int:
        return len(self.output_order)


def lower_schedule(schedule: SortSchedule, hops_of=None) -> CompiledSchedule:
    """Lower ``schedule`` into per-substage index arrays.

    Args:
        schedule: the source schedule; every pair endpoint must appear in
            ``schedule.output_order``.
        hops_of: ``f(addr_a, addr_b) -> int`` routing metric for substages
            with ``uniform_hops=None`` (pass the executing machine's
            fault-aware :meth:`~repro.simulator.phases.PhaseMachine.hops`).
            Defaults to the Hamming distance — exact whenever no detours
            are needed (partial faults, no link faults).

    The result depends only on ``(schedule, hop metric)``, making it a
    cacheable artifact: :func:`repro.plancache.cache.cached_compiled_program`
    keys it like the schedule plus the fault set only when the metric is
    fault-dependent.
    """
    if hops_of is None:
        hops_of = hamming_distance
    row = {addr: t for t, addr in enumerate(schedule.output_order)}
    lowered = []
    for sub in schedule.substages:
        a_idx: list[int] = []
        b_idx: list[int] = []
        for pair in sub.pairs:
            if sub.kind == "cx" and not pair.keep_min:
                a_idx.append(row[pair.high])
                b_idx.append(row[pair.low])
            else:
                a_idx.append(row[pair.low])
                b_idx.append(row[pair.high])
        count = len(a_idx)
        uniform = sub.uniform_hops
        if uniform is not None:
            hops = np.full(count, uniform, dtype=np.int64)
        else:
            hops = np.fromiter(
                (hops_of(p.low, p.high) for p in sub.pairs), dtype=np.int64, count=count
            )
            if count and (hops == hops[0]).all():
                uniform = int(hops[0])
        lowered.append(
            CompiledSubstage(
                label=sub.label,
                kind=sub.kind,
                a_rows=_frozen(np.asarray(a_idx, dtype=np.intp)),
                b_rows=_frozen(np.asarray(b_idx, dtype=np.intp)),
                hops=_frozen(hops),
                uniform_hops=uniform,
            )
        )
    return CompiledSchedule(
        n=schedule.n, output_order=schedule.output_order, substages=tuple(lowered)
    )
