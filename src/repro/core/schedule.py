"""Static comparator schedules for the sorting algorithms.

Every sort in this repository is *oblivious*: the sequence of
compare-exchange partners, directions, and mirror swaps depends only on the
machine configuration (dimension, fault plan) — never on key values.  So
the whole execution is fixed by the plan, and this module writes it down
in two forms.

Programs — what the phase engine runs:

:func:`build_ft_program` and :func:`build_plain_program` return a
:class:`CompiledSchedule`: per-substage index arrays over the rows of one
``(workers, block)`` key matrix, built from the plan by index arithmetic
in a few whole-array numpy operations per substage.  Only the output order
and the inter-subcube hop counts depend on the fault set; the rest, the
skeleton, is built once per ``(n, m, step8)`` and shared by every program
bound to it.  The phase engine runs one program two ways:
:func:`repro.kernels.compiled.run_schedule_compiled` executes each
substage as a handful of numpy operations (the default ``compiled``
route), and :func:`repro.core.single_fault.run_program_interpreted` walks it pair by
pair on a :class:`~repro.simulator.phases.PhaseMachine` (the ``loop`` spec,
and any sort with a phase observer).  Both fetch the same cached program.

Schedules — what the message-level engines run:

* :func:`build_plain_schedule` — fault-free or single-fault full-cube
  bitonic sort (paper Section 2.1);
* :func:`build_ft_schedule` — the full fault-tolerant algorithm for a
  resolved :class:`~repro.core.selection.SelectionResult` (Section 3,
  steps 3-8, two-merge or full-sort Step 8).

A :class:`SortSchedule` lists every pair as an object.  The SPMD machine
(:mod:`repro.core.spmd_sort`) and the host session execute it, every
exchange realized as routed messages on the discrete-event simulator, and
it is the reference the program builders are tested against:
:func:`lower_schedule` turns it into the same :class:`CompiledSchedule`,
array for array.  One network executed by both engines is how the test
suite proves the fast phase engine faithfully represents the distributed
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.selection import SelectionResult
from repro.cube.address import (
    bit_of,
    hamming_distance,
    popcount_array,
    validate_address,
    validate_dimension,
)
from repro.plancache.cache import cached_program_skeleton
from repro.sorting.bitonic_cube import substage_pairs

__all__ = [
    "CompiledSchedule",
    "CompiledSubstage",
    "CxPair",
    "SortSchedule",
    "Substage",
    "build_ft_program",
    "build_ft_schedule",
    "build_plain_program",
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


def build_ft_schedule(selection: SelectionResult, full_sort: bool = False) -> SortSchedule:
    """The fault-tolerant sort (steps 3-8) as a static schedule.

    Initial per-subcube full bitonic sorts (alternating by subcube
    parity), then for every inter-subcube substage one compare-exchange
    step and the Step-8 re-sort: one side-direction merge pass and, where
    the target direction flips, one mirror step (see
    :func:`build_ft_program` for why that sorts), or with ``full_sort``
    a full bitonic sort of every subcube in its target direction.  This is
    the reference :func:`build_ft_program` is tested against.
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

    def add_intra(directions: list[bool], label: str, merge: bool = False) -> None:
        # A merge pass is the bitonic sort's last stage alone.
        for i in [s - 1] if merge else range(s):
            for j in range(i, -1, -1):
                entries: list[tuple[int, int, bool]] = []
                for v in range(num_subcubes):
                    for low, high, keep_min in substage_pairs(
                        s, i, j, descending=not directions[v]
                    ):
                        if low == 0 or high == 0:
                            continue  # dead processor at reindexed 0
                        entries.append((phys(v, low), phys(v, high), keep_min))
                name = f"{label}[j={j}]" if merge else f"{label}[i={i},j={j}]"
                substages.append(_cx_substage(name, entries))

    # Step 3: initial per-subcube sorts, ascending iff subcube address even.
    ascending = [(v & 1) == 0 for v in range(num_subcubes)]
    add_intra(ascending, "intra-init")

    # Steps 4-8.
    for i in range(m):
        for j in range(i, -1, -1):
            entries = []
            kept_min = [False] * num_subcubes
            for v_low in range(num_subcubes):
                if (v_low >> j) & 1:
                    continue
                v_high = v_low | (1 << j)
                if ascending[v_low] == ascending[v_high]:
                    raise AssertionError(
                        f"orientation invariant violated: subcubes {v_low}/{v_high} "
                        f"both {'ascending' if ascending[v_low] else 'descending'}"
                    )
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
            if full_sort:
                add_intra(ascending, f"intra[i={i},j={j}]")
                continue
            add_intra(kept_min, f"intra[i={i},j={j}]a", merge=True)
            flips = [v for v in range(num_subcubes) if kept_min[v] != ascending[v]]
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
    if not all(ascending):
        raise AssertionError("final orientation must be ascending everywhere")

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

    ``pairs`` is one ``(P, 2)`` intp array, a row per pair; ``a_rows``
    and ``b_rows`` are its two columns, as views.  For ``kind == "cx"``,
    row ``a_rows[t]`` keeps the smaller half of its union with row
    ``b_rows[t]`` — the low/high vs min/max orientation of the comparator
    is already resolved, so the executor needs no keep_min branching.
    For ``kind == "mirror"``, the two rows swap whole blocks.
    ``hops[t]`` is the routing distance the pair's transfers are charged
    over; ``uniform_hops`` is that distance when every pair shares it,
    else ``None``.  All arrays are read-only (compiled programs are
    cached and shared across runs).
    """

    label: str
    kind: str
    pairs: np.ndarray
    hops: np.ndarray
    uniform_hops: int | None = None

    @property
    def a_rows(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def b_rows(self) -> np.ndarray:
        return self.pairs[:, 1]


@dataclass(frozen=True)
class CompiledSchedule:
    """A sort as a flat array program: a lowered :class:`SortSchedule`, or
    the same program built straight from the plan.

    Execution state is one ``(workers, block)`` float matrix whose row
    ``t`` is the block of processor ``output_order[t]``; every substage is
    a gather/compute/scatter over that matrix (see
    :func:`repro.kernels.compiled.run_schedule_compiled`).

    ``skeleton`` is the cached skeleton a built program is bound to
    (``None`` for a lowered one).  Programs bound to one skeleton share
    every row array, so the executor can stack their key matrices and
    run them in one pass.
    """

    n: int
    output_order: tuple[int, ...]
    substages: tuple[CompiledSubstage, ...]
    skeleton: object = field(default=None, compare=False, repr=False)

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

    The result depends only on ``(schedule, hop metric)``.  The compiled
    tier builds the same program straight from the plan
    (:func:`build_ft_program`, :func:`build_plain_program`); this pass is
    the reference those builders are tested against.
    """
    if hops_of is None:
        hops_of = hamming_distance
    row = {addr: t for t, addr in enumerate(schedule.output_order)}
    lowered = []
    for sub in schedule.substages:
        rows: list[tuple[int, int]] = []
        for pair in sub.pairs:
            if sub.kind == "cx" and not pair.keep_min:
                rows.append((row[pair.high], row[pair.low]))
            else:
                rows.append((row[pair.low], row[pair.high]))
        count = len(rows)
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
                pairs=_frozen(np.asarray(rows, dtype=np.intp).reshape(count, 2)),
                hops=_frozen(hops),
                uniform_hops=uniform,
            )
        )
    return CompiledSchedule(
        n=schedule.n, output_order=schedule.output_order, substages=tuple(lowered)
    )


# -- building the program from the plan ---------------------------------------


def _place_bits(x: np.ndarray, dims) -> np.ndarray:
    """Bit ``k`` of every element of ``x`` moved to bit ``dims[k]``."""
    out = np.zeros(x.shape, dtype=np.int64)
    for k, d in enumerate(dims):
        out |= ((x >> k) & 1) << d
    return out


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(P, 2)`` pair array of min-keeper rows ``a`` and max-keeper
    rows ``b`` (arrays of one shape, read in C order)."""
    return np.stack((a, b), axis=-1).reshape(-1, 2)


def _bitonic_rows(
    q: int, i: int, j: int, descending: np.ndarray, dead0: bool
) -> np.ndarray:
    """The ``(P, 2)`` min-keeper and max-keeper rows of bitonic substage
    ``(i, j)`` on ``2**q`` logical positions, for every group at once.

    Group ``g`` holds position ``l`` in row ``g * (2**q - dead0) + l -
    dead0``; with ``dead0`` position 0 is the dead processor, which has no
    row and whose comparators are dropped.  ``descending[g]`` inverts group
    ``g``'s network.  Pairs come group-major, then in ascending low
    position, as :func:`~repro.sorting.bitonic_cube.substage_pairs` lists
    them.
    """
    low = np.arange(1 << q, dtype=np.intp)
    low = low[(low >> j) & 1 == 0][int(dead0):]
    high = low | (1 << j)
    keep = (((low >> (i + 1)) & 1) == 0) != descending[:, None]
    base = np.arange(descending.size, dtype=np.intp)[:, None] * ((1 << q) - dead0) - dead0
    low_rows, high_rows = base + low, base + high
    return _pairs(np.where(keep, low_rows, high_rows), np.where(keep, high_rows, low_rows))


def _substage(label: str, kind: str, pairs: np.ndarray,
              hops: np.ndarray | None) -> CompiledSubstage:
    """A substage over frozen arrays, ``uniform_hops`` read off ``hops``.

    ``hops=None`` makes a skeleton's inter-subcube template, which only a
    plan can charge (:func:`_charged`).
    """
    uniform = None
    if hops is not None:
        uniform = int(hops[0]) if hops.size and (hops == hops[0]).all() else None
        hops = _frozen(hops)
    return CompiledSubstage(label=label, kind=kind, pairs=_frozen(pairs), hops=hops,
                            uniform_hops=uniform)


def _neighbor_substage(label: str, pairs: np.ndarray) -> CompiledSubstage:
    """A cx substage whose pairs are all physical neighbors (1 hop, also
    when it has no pairs)."""
    return CompiledSubstage(
        label=label,
        kind="cx",
        pairs=_frozen(pairs),
        hops=_frozen(np.ones(len(pairs), dtype=np.int64)),
        uniform_hops=1,
    )


def _charged(template: CompiledSubstage, hops: np.ndarray) -> CompiledSubstage:
    """``template`` charged over ``hops``; the pair array is shared."""
    return _substage(template.label, template.kind, template.pairs, hops)


def _metric_hops(hops_of, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``hops_of(low[t], high[t])`` for every pair (a detouring metric)."""
    return np.fromiter(map(hops_of, low.tolist(), high.tolist()),
                       dtype=np.int64, count=low.size)


def _plain_skeleton(n: int, dead0: bool) -> tuple[CompiledSubstage, ...]:
    """Every substage of the full-cube bitonic sort: all neighbor pairs."""
    descending = np.zeros(1, dtype=bool)
    return tuple(
        _neighbor_substage(f"bitonic[i={i},j={j}]", _bitonic_rows(n, i, j, descending, dead0))
        for i in range(n) for j in range(i, -1, -1)
    )


def build_plain_program(n: int, faulty: int | None = None) -> CompiledSchedule:
    """``lower_schedule(build_plain_schedule(n, faulty))``, built directly.

    Logical position ``l`` sits on processor ``l XOR faulty`` and in row
    ``l`` (``l - 1`` with a fault, whose logical 0 holds no row).  Every
    pair is a neighbor pair, so the substages depend on ``(n, faulty is
    not None)`` alone: they come from the plan cache's ``skeleton``
    section, and ``faulty`` adds only ``output_order``.
    """
    validate_dimension(n)
    dead0 = faulty is not None
    if dead0:
        validate_address(faulty, n)
        if n == 0:
            raise ValueError("Q_0 with a fault has no working processor")
    substages = cached_program_skeleton(("plain", n, dead0),
                                        lambda: _plain_skeleton(n, dead0))
    mask = faulty or 0
    output_order = tuple(l ^ mask for l in range(int(dead0), 1 << n))
    return CompiledSchedule(n=n, output_order=output_order, substages=substages,
                            skeleton=substages)


@dataclass(frozen=True)
class _FtSkeleton:
    """The part of a fault-tolerant program fixed by ``(n, m, step8)``.

    ``substages`` is the whole program except the hops of its inter-subcube
    substages: those entries are templates (``hops is None``), listed in
    ``inter`` as ``(index, v_low, v_high)``: pair ``t`` joins processor
    ``rho`` of subcube ``v_low[t // (P - 1)]`` with processor ``rho`` of
    ``v_high[t // (P - 1)]``, ``rho = t % (P - 1) + 1``.  A mirror pair's
    hops do not depend on the plan (see :func:`build_ft_program`) and are
    in place.
    """

    substages: tuple[CompiledSubstage, ...]
    inter: tuple[tuple[int, np.ndarray, np.ndarray], ...]


def _ft_skeleton(n: int, m: int, full_sort: bool) -> _FtSkeleton:
    """Steps 3-8 on ``2**m`` subcubes of dimension ``n - m``, as rows.

    Subcube ``v``'s reindexed processor ``rho`` (``1 <= rho < P``) is row
    ``v * (P - 1) + rho - 1``.  Raises ``AssertionError`` unless every
    Step-7 exchange pairs opposite-orientation subcubes and every subcube
    ends ascending (see :func:`build_ft_program`).
    """
    s = n - m
    p = 1 << s
    vs = np.arange(1 << m, dtype=np.int64)
    # Column 0 (the dead processor) gets row -1 and is never selected.
    rows = (vs[:, None] * (p - 1) + np.arange(p)[None, :] - 1).astype(np.intp)
    no_bit = np.zeros(vs.size, dtype=np.int64)
    substages: list[CompiledSubstage] = []
    inter: list[tuple[int, np.ndarray, np.ndarray]] = []

    def intra_sort(label: str, ascending: np.ndarray) -> None:
        for i in range(s):
            for j in range(i, -1, -1):
                substages.append(_neighbor_substage(
                    f"{label}[i={i},j={j}]", _bitonic_rows(s, i, j, ~ascending, dead0=True)))

    # Step 3: per-subcube sorts, ascending iff the subcube address is even.
    ascending = (vs & 1) == 0
    intra_sort("intra-init", ascending)

    # Steps 4-8.
    half = np.arange(1, p // 2)
    # phys(v, rho) XOR phys(v, P - rho) is rho XOR (P - rho), placed on the
    # non-cut dimensions: a mirror pair's distance is the same in every plan.
    mirror_hops = popcount_array(half ^ (p - half))
    for i in range(m):
        mask = (vs >> (i + 1)) & 1 if i + 1 < m else no_bit
        for j in range(i, -1, -1):
            # Step 7: the subcube whose v_j equals mask keeps the minima.
            bit_j = (vs >> j) & 1
            kept_min = bit_j == mask
            v_low = vs[bit_j == 0]
            v_high = v_low | (1 << j)
            same = ascending[v_low] == ascending[v_high]
            if same.any():
                v = int(v_low[same][0])
                raise AssertionError(
                    f"orientation invariant violated: subcubes {v}/{v | (1 << j)} "
                    f"both {'ascending' if ascending[v] else 'descending'}"
                )
            keep = kept_min[v_low][:, None]
            low_rows, high_rows = rows[v_low, 1:], rows[v_high, 1:]
            inter.append((len(substages), v_low, v_high))
            substages.append(_substage(
                f"inter[i={i},j={j}]", "cx",
                _pairs(np.where(keep, low_rows, high_rows), np.where(keep, high_rows, low_rows)),
                None,
            ))
            # Step 8 (see build_ft_program).
            prev_bit = (vs >> (j - 1)) & 1 if j >= 1 else no_bit
            ascending = prev_bit == mask
            if full_sort:
                intra_sort(f"intra[i={i},j={j}]", ascending)
                continue
            for jj in range(s - 1, -1, -1):
                substages.append(_neighbor_substage(
                    f"intra[i={i},j={j}]a[j={jj}]",
                    _bitonic_rows(s, s - 1, jj, ~kept_min, dead0=True)))
            flips = vs[kept_min != ascending]
            if flips.size:
                substages.append(_substage(
                    f"intra[i={i},j={j}]b", "mirror",
                    _pairs(rows[flips[:, None], half], rows[flips[:, None], p - half]),
                    np.tile(mirror_hops, flips.size),
                ))
    if not ascending.all():
        raise AssertionError("final orientation must be ascending everywhere")
    return _FtSkeleton(tuple(substages), tuple(inter))


def build_ft_program(
    selection: SelectionResult, hops_of=None, full_sort: bool = False
) -> CompiledSchedule:
    """``lower_schedule(build_ft_schedule(selection, full_sort), hops_of)``,
    built directly from the plan.

    The program is a skeleton bound to the plan.  The skeleton (every
    label, kind and row array, the neighbor and mirror substages whole) is
    fixed by ``(n, m, full_sort)`` and comes from the plan cache's
    ``skeleton`` section.  The binding reads subcube ``v``'s reindexed
    processor ``rho`` as physical processor ``combine(v, rho XOR
    dead_w[v])`` from one ``(2**m, P)`` table, in the row order of
    ``output_order``, and charges the inter-subcube pairs.  Processor
    ``rho`` of subcubes ``v`` and ``v XOR 2**j`` differ in the ``j``-th cut
    dimension and in ``dead_w[v] XOR dead_w[v XOR 2**j]``, whatever
    ``rho``, so without a metric (``hops_of=None``: the Hamming distance)
    all ``P - 1`` pairs of two subcubes are charged ``1 + h``, ``h`` being
    their term of Eq. (1).  ``hops_of`` is the routing metric of
    :func:`lower_schedule`: with one, inter-subcube pairs are charged pair
    by pair.  Mirror pairs keep the skeleton's Hamming hops under any
    metric, because no route between them detours: processors ``rho`` and
    ``P - rho`` share a set bit (two numbers below ``P`` with no common
    bit add up to less than ``P``), so no shortest path between them
    passes the subcube's dead processor at reindexed 0, and every faulty
    link of a plan touches a faulty processor.

    Step 8 re-sorts every subcube in its target direction (ascending iff
    ``v_{j-1} == mask``).  ``full_sort`` runs the literal
    ``s(s+1)/2``-substage bitonic sort the paper's worst-case ``T``
    charges.  The default runs two steps instead, both exact:

    * after the Step-7 exchange, the subcube holding the smaller halves
      holds, per processor, the pairwise minima of a bitonic
      (ascending-then-descending) virtual sequence; its block multisets
      therefore form a "valley" of zero-counts under any 0-1 threshold,
      which together with the dead node's ``-inf`` sentinel block at
      reindexed address 0 is cyclically bitonic — exactly the
      precondition of an ascending skip-merge.  Symmetrically the larger
      half with a ``+inf`` sentinel is the precondition of a descending
      skip-merge.  So one bitonic merge pass sorts each subcube in its
      *side* direction (substages ``intra[i,j]a[j=..]``);
    * where the target direction is the other one, the content is exactly
      the mirror image of the target, so one parallel block-mirror phase
      (processor ``rho`` swaps with ``P - rho``, ``intra[i,j]b``) finishes
      the job with no comparisons at all.

    Both builders raise ``AssertionError`` unless every Step-7 exchange
    pairs opposite-orientation subcubes — precisely the condition under
    which the equal-``rho`` pairing realizes an exact supernode
    merge-split — and every subcube ends ascending.  The skeleton checks
    both, once per ``(n, m, full_sort)``.
    """
    m, s = selection.m, selection.s
    if s < 1:
        raise ValueError("fault-tolerant schedule needs subcubes of dimension >= 1")
    n = selection.n
    skeleton = cached_program_skeleton(("ft", n, m, full_sort),
                                       lambda: _ft_skeleton(n, m, full_sort))
    p = 1 << s
    split = selection.split
    rhos = np.arange(p, dtype=np.int64)
    dead_w = np.array([split.w_of(d) for d in selection.dead_of_subcube], dtype=np.int64)
    phys = (_place_bits(np.arange(1 << m, dtype=np.int64), split.cut_dims)[:, None]
            | _place_bits(rhos, split.rest_dims)[rhos[None, :] ^ dead_w[:, None]])
    substages = list(skeleton.substages)
    for index, v_low, v_high in skeleton.inter:
        if hops_of is None:
            hops = np.repeat(1 + popcount_array(dead_w[v_low] ^ dead_w[v_high]), p - 1)
        else:
            hops = _metric_hops(hops_of, phys[v_low, 1:].ravel(), phys[v_high, 1:].ravel())
        substages[index] = _charged(substages[index], hops)
    output_order = tuple(phys[:, 1:].ravel().tolist())
    return CompiledSchedule(n=n, output_order=output_order, substages=tuple(substages),
                            skeleton=skeleton)
