"""The ``compiled`` backend: the vectorized kernels, and whole-schedule
execution as a flat array program.

The phase engine's schedule executor is this tier's main route:
:func:`repro.core.schedule.build_ft_program` and
:func:`~repro.core.schedule.build_plain_program` turn a plan into
per-substage index arrays over one ``(workers, block)`` key matrix (the
program :func:`~repro.core.schedule.lower_schedule` would make of the
plan's :class:`~repro.core.schedule.SortSchedule`), either ``step8``
mode included, :func:`program_machine` serves it from the plan cache, and
:func:`run_schedule_compiled` executes each substage as a handful of numpy
operations — one vectorized probe, one compress that picks the executed
pairs' rows out of the substage's ``(P, 2)`` pair array, a gather, one
batched compare-split, one scatter — with the paper's comparison/traffic
accounting computed in *closed form* per substage.  The gather, the
scatter and the mirror swaps move whole rows as records, one fixed-size
item per row of the key matrix, which costs about half a 2-D fancy write
for small rows and ties for big ones.  No per-processor Python object
exists between substages.

A compare-split only has to leave the ``k`` smallest keys of a pair's
union on the min side, and a probe only reads a block's extremes.  The
executor picks one of two regimes per call, from the block size ``k``:

* **sorted rows** (``0 < k <= _SORTED_ROWS_MAX_K``): as in the paper,
  every row stays sorted.  Step 3a sorts the rows, one row ``sort`` of
  each executed pair's union puts its ``k`` smallest keys on the min
  side, and a row's extremes are its first and last columns, read in
  place.  For small blocks that sort costs less than a selection plus
  the reduction that finds the min side's maximum;
* **selection** (bigger blocks): each row is an unsorted multiset plus
  its tracked minimum and maximum, ``ndarray.partition`` does the split,
  and every row is sorted once, after the last substage.

Neither regime is the paper's linear merge, but both leave the multiset
a merge would leave in every row after every substage, so the probe
decisions, the simulated clock, the counters and the final sorted rows
cannot depend on the regime (keys that compare equal with different
bits, ``-0.0`` and ``0.0``, may trade places, and numpy's sort of up to
256 keys may turn one into the other; no tier pins them).
An active comparison injector always takes the selection regime: the
lying duel runs on sorted copies of the two rows, as the interpreter's
does, and leaves both halves unsorted, so the selection regime's tracked
extremes and final row sort are what keep its probes and output exact.

A substage's compare-splits touch disjoint rows, so a big enough call
cuts the executed pairs into contiguous chunks, one per core the process
may use (:func:`repro.parallel.kernel_threads`).  The calling thread runs
the first chunk's gather, compare-split and scatter while helper threads
run the others; numpy releases the GIL inside each of those calls.  The
selection regime's final row sort is cut the same way.  Each chunk owns
its own rows and buffer slices, and everything else (the probe, the
accounting, mirror swaps) stays on the calling thread, so the split
cannot change an output.

A call takes a job axis: several runs whose programs are bound to one
skeleton (:attr:`~repro.core.schedule.CompiledSchedule.skeleton`) share
every row array, so their key matrices are stacked and each substage's
probe, gather, compare-split and scatter run once for all of them.  A
fault set changes only where a run's rows land and what its pairs' hops
cost, never which rows meet, so stacking cannot change an output; the
clock, the phase records and the counters are kept per run.

The network reads keys only through comparisons, so the executor may run
on any order-preserving image of them that keeps ties: every probe
decision, the clock, the counters and the multiset in every row stay the
same.  Where it can, a call runs its substages on an int32 image of each
run's padded keys, whose gathers, scatters, partitions and row sorts
cost about half the float64 ones, and decodes the final rows back
(:func:`_key_image`):

* **cast**, in either regime, when every key is an integer in
  ``[-2**31, 2**31 - 2]`` other than ``-0.0``: the image is the keys
  themselves, and the pads are ``2**31 - 1``, above every key;
* **dense ranks**, in the sorted-rows regime only, for other keys without
  a ``-0.0``: an ``argsort`` ranks the keys, equal keys share a rank, the
  pads take the rank above the largest, and a table of the distinct keys
  maps ranks back.  The ``argsort`` pays for itself only where the
  program is long next to its keys: at big blocks' few substages it
  costs more than it saves;
* otherwise, and under an active comparison or memory injector (the
  first hashes operand values, the second corrupts the float store),
  the call runs on float64.

Runs of one call are encoded one by one, each in its own rank space (rows
of two runs never meet), and a batch narrows only if every run does.

Off the executor — the program walker
(:func:`repro.core.single_fault.run_program_interpreted`, which runs the
same program pair by pair for sorts with a per-phase ``observer``), the
SPMD machine's per-message legs, and
:func:`repro.sorting.merge.compare_split` — the backend's kernel methods
run the same operations on whole batches:

* **local sort** — one row-wise ``np.sort`` when the caller charges the
  closed-form worst case; with exact counts, :func:`heapsort_batch` runs
  the reference heapsort on every row at once, one masked sift-down step
  per Python iteration, counting per-row comparisons with boolean masks.
  The counts are exactly those of :func:`repro.sorting.heapsort.heapsort`
  because the control flow is the same — only the row axis is
  vectorized;
* **exchange-split** — ``min``/``max`` against the reversed partner plus
  one sort per side (the exchange-split lemma of
  :mod:`repro.sorting.merge`), for every live pair of a substage as one
  2-D array operation;
* **SPMD legs** — the duel is one pair's exchange-split (the winners are
  the min side's low half or the max side's high half), and a run merge
  is a concatenate-and-sort.

Exactness is the contract, not an aspiration:

* sorted output, per-phase :class:`~repro.simulator.phases.PhaseRecord`
  counters, the ``sort.*`` observability counters, **and the simulated
  clock** are identical on every route and to the ``loop`` spec —
  bit-for-bit, including IEEE-754 float accumulation order (the executor
  replicates the interpreter's per-node addition sequence exactly);
* the one exception is the sign of zero: ``-0.0`` and ``0.0`` compare
  equal, and on float64 rows numpy's sort of up to 256 keys may turn one
  into the other, on every tier, so sorted output holding both is equal
  to ``loop``'s by value, not always by bytes;
* the parity suite in ``tests/kernels/`` asserts all of the above across
  dimensions, fault plans, block skews, and plan-cache warm replay; it
  compares inputs with both zeros by value (``same_bytes=False``).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.faults.injectors import active_comparison, active_memory
from repro.kernels.base import KernelBackend

__all__ = ["CompiledBackend", "heapsort_batch", "program_machine", "run_schedule_compiled"]

#: Fewest bytes of keys worth a chunk of their own: union keys (2k per
#: executed pair) for a substage, row keys for the final sort.  Below it a
#: helper thread's hand-off costs more than the chunk's work saves, and
#: that work goes with the keys' bytes: a chunk of int32 keys needs twice
#: the keys of a float64 one.  Measured crossover: docs/PERFORMANCE.md §1,
#: "Substages across cores".
_MIN_CHUNK_BYTES = 1 << 19

#: Largest block whose rows stay sorted for the whole call (the module
#: docstring's small-block regime).  Up to here one row sort of each
#: union beats ``partition(k)`` plus the ``max`` reduction; it must stay
#: below svc-stream's 515-key blocks, where the sort loses on small
#: cubes.  Measured crossover: docs/PERFORMANCE.md §1, "Small blocks:
#: sort the union".
_SORTED_ROWS_MAX_K = 128

#: Every pad's image: above every key the cast accepts.
_PAD_IMAGE = np.iinfo(np.int32).max

#: The bits of ``-0.0`` read as an int64: the smallest int64, which no
#: other float's bits reach.
_NEG_ZERO_BITS = np.iinfo(np.int64).min

#: Keys the cast tries before it reads them all, so that float keys are
#: turned away in microseconds.
_CAST_PREFIX = 64


def _has_negative_zero(keys: np.ndarray) -> bool:
    return int(keys.view(np.int64).min()) == _NEG_ZERO_BITS


def _cast_image(keys: np.ndarray, size: int) -> np.ndarray | None:
    """``keys`` as int32, then pads up to ``size`` keys, or None unless
    every key is an integer in ``[-2**31, 2**31 - 2]`` other than ``-0.0``.

    A key passes when its cast converts back to itself; a value out of
    int32's range converts to some in-range integer, so it cannot."""
    head = keys[:_CAST_PREFIX]
    with np.errstate(invalid="ignore"):
        if not np.array_equal(head.astype(np.int32), head):
            return None
        image = np.empty(size, dtype=np.int32)
        image[:keys.size] = keys
    image[keys.size:] = _PAD_IMAGE
    real = image[:keys.size]
    if (np.array_equal(real, keys) and real.max() < _PAD_IMAGE
            and not _has_negative_zero(keys)):
        return image
    return None


def _rank_image(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense int32 ranks of ``keys`` (equal keys share one), then pads up
    to ``size`` keys at the rank above the largest; and the table that
    maps a rank back to its key (the pads' to ``+inf``)."""
    order = np.argsort(keys)
    # The sorted keys are the table already when no two are equal.
    table = np.empty(keys.size + 1)
    table[-1] = np.inf
    ordered = table[:-1]
    np.take(keys, order, out=ordered, mode="clip")
    new = np.empty(keys.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ranks = np.cumsum(new, dtype=np.int32)
    ranks -= 1
    image = np.empty(size, dtype=np.int32)
    image[order] = ranks
    distinct = int(ranks[-1]) + 1
    del order, ranks
    image[keys.size:] = distinct
    if distinct < keys.size:
        table = np.append(ordered[new], np.inf)
    return image, table


def _key_image(keys: np.ndarray, size: int, sorted_rows: bool):
    """An int32 image of ``keys`` padded to ``size`` keys, which orders
    and ties them as the keys do, with every pad above every key; or
    None where the call must stay on float64.

    Returns ``(image, table)``: ``table`` is None for the cast and the
    rank table for ranks, as :func:`_decode` takes it.  Ranks are tried
    in the sorted-rows regime only, and not where a ``-0.0`` is present:
    one rank for ``-0.0`` and ``0.0`` could not give back both."""
    image = _cast_image(keys, size)
    if image is not None:
        return image, None
    if sorted_rows and size < 2**31 and not _has_negative_zero(keys):
        return _rank_image(keys, size)
    return None


def _decode(image: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """The float64 keys an int32 image of :func:`_key_image` stands for,
    pads as ``+inf``."""
    if table is not None:
        return table[image]
    keys = image.astype(np.float64)
    keys[image == _PAD_IMAGE] = np.inf
    return keys


def _sift_down_batch(a: np.ndarray, rows: np.ndarray, start: int, end: int,
                     comps: np.ndarray) -> None:
    """One sift-down from ``start`` over every row of ``a``, masked.

    Mirrors ``repro.sorting.heapsort._sift_down`` exactly, with the block
    axis vectorized: ``alive`` marks rows whose sift-down is still walking
    down the heap; per-row comparison counts accumulate into ``comps``.
    """
    nrows = a.shape[0]
    root = np.full(nrows, start, dtype=np.intp)
    alive = np.ones(nrows, dtype=bool)
    while True:
        child = 2 * root + 1
        alive &= child < end
        if not alive.any():
            return
        # Clamp dead rows to a safe index; their reads are masked out.
        child = np.where(alive, child, 0)
        has_sibling = alive & (2 * root + 2 < end)
        sibling = np.where(has_sibling, child + 1, 0)
        comps += has_sibling
        go_right = has_sibling & (a[rows, child] < a[rows, sibling])
        child = np.where(go_right, sibling, child)
        comps += alive
        swap = alive & (a[rows, root] < a[rows, child])
        srows = rows[swap]
        sroot = root[swap]
        schild = child[swap]
        tmp = a[srows, sroot].copy()
        a[srows, sroot] = a[srows, schild]
        a[srows, schild] = tmp
        root = np.where(swap, child, root)
        alive = swap


def heapsort_batch(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Heapsort every row of a 2-D batch, with exact per-row counts.

    Returns ``(sorted_rows, comparisons)`` where ``comparisons[t]`` equals
    what :func:`repro.sorting.heapsort.heapsort` reports for row ``t``.
    The input is not modified.  Python-level iterations scale with the
    block length only, so the batch axis is effectively free.
    """
    a = np.array(blocks, copy=True)
    if a.ndim != 2:
        raise ValueError(f"heapsort_batch expects a 2-D batch, got shape {a.shape}")
    nrows, m = a.shape
    comps = np.zeros(nrows, dtype=np.int64)
    if m > 1:
        rows = np.arange(nrows)
        for start in range(m // 2 - 1, -1, -1):
            _sift_down_batch(a, rows, start, m, comps)
        for end in range(m - 1, 0, -1):
            a[:, [0, end]] = a[:, [end, 0]]
            _sift_down_batch(a, rows, 0, end, comps)
    return a, comps


class CompiledBackend(KernelBackend):
    """Vectorized kernels plus whole-schedule flat-array execution.

    The flag :attr:`schedule_compiled` is what the phase engine's route
    choice (:func:`repro.core.single_fault.run_program`) tests to run a
    sort through :func:`run_schedule_compiled` instead of walking the
    program pair by pair.  Sorts with a per-phase ``observer`` walk it
    with the kernel methods below, as does the SPMD discrete-event
    machine.
    """

    name = "compiled"
    schedule_compiled = True

    # -- local sort -------------------------------------------------------

    def sort_blocks(self, blocks: np.ndarray) -> np.ndarray:
        return np.sort(np.asarray(blocks), axis=1, kind="stable")

    def sort_blocks_counted(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return heapsort_batch(blocks)

    # -- exchange-split ---------------------------------------------------

    def split_pair(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        low, high = self.split_blocks(np.asarray(a)[None, :], np.asarray(b)[None, :])
        return low[0], high[0]

    def split_blocks(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        a = np.asarray(a)
        b_rev = np.asarray(b)[:, ::-1]
        inj = active_comparison()
        if inj is not None:
            # Lying duels: flip the <= verdict wherever the injector says;
            # minimum/maximum(a, b) is where(a <= b, ...) elementwise, so
            # the fault-free path below is the flips-all-False case.
            le = (a <= b_rev) ^ inj.flip_pairs(a, b_rev)
            return (
                np.sort(np.where(le, a, b_rev), axis=1, kind="stable"),
                np.sort(np.where(le, b_rev, a), axis=1, kind="stable"),
            )
        return (
            np.sort(np.minimum(a, b_rev), axis=1, kind="stable"),
            np.sort(np.maximum(a, b_rev), axis=1, kind="stable"),
        )

    # -- SPMD compare-exchange legs --------------------------------------

    def cx_winners_losers(
        self, mine: np.ndarray, received: np.ndarray, want_min: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        # The duel is the exchange-split's: the min side's winners are its
        # low half.
        low, high = self.split_pair(mine, received)
        return (low, high) if want_min else (high, low)

    def merge_runs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.sort(np.concatenate([np.asarray(a), np.asarray(b)]), kind="stable")


_helpers = None  # ThreadPoolExecutor, made on first use
_helpers_key = (0, 0)  # (pid, threads) it was made for
_helpers_lock = threading.Lock()


def _helper_pool(threads: int):
    """The process's helper threads.

    Re-made when the pid changes: the warm process pool forks, and a
    forked child inherits the pool object but none of its threads.
    """
    global _helpers, _helpers_key
    key = (os.getpid(), threads)
    with _helpers_lock:
        if _helpers is None or _helpers_key != key:
            from concurrent.futures import ThreadPoolExecutor

            _helpers = ThreadPoolExecutor(threads, thread_name_prefix="repro-kernel")
            _helpers_key = key
        return _helpers


def _in_chunks(pool, chunks: int, count: int, fn, *args) -> None:
    """Run ``fn(lo, hi, *args)`` over ``chunks`` contiguous slices of
    ``range(count)``: the calling thread takes the first, helpers the rest.

    Every chunk is joined before an exception propagates, so no helper
    still writes into the caller's arrays once this returns or raises.
    """
    bounds = [count * i // chunks for i in range(chunks + 1)]
    futures = [pool.submit(fn, bounds[i], bounds[i + 1], *args)
               for i in range(1, chunks)]
    try:
        fn(bounds[0], bounds[1], *args)
    finally:
        # ``exception()`` waits for its chunk and does not raise.
        errors = [fut.exception() for fut in futures]
    for err in errors:
        if err is not None:
            raise err


def _split_pairs(lo, hi, records, rows, gathered, lo_max, k) -> None:
    """Compare-split executed pairs ``lo..hi-1``, allocating nothing: they
    own ``rows[2lo:2hi]``, ``gathered[2lo:2hi]`` and ``lo_max[lo:hi]``.

    ``records`` is the key matrix with one record per row, ``gathered``
    the ``(2 * pairs, k)`` scratch buffer.  ``lo_max`` is None in the
    sorted-rows regime: each union is sorted whole and no extreme is
    tracked."""
    idx = rows[2 * lo:2 * hi]
    own = gathered[2 * lo:2 * hi]
    own_records = own.view(records.dtype).reshape(-1)
    np.take(records, idx, out=own_records, mode="clip")
    union = own.reshape(hi - lo, 2 * k)
    if lo_max is None:
        union.sort(axis=1)
    else:
        union.partition(k, axis=1)
        np.max(union[:, :k], axis=1, out=lo_max[lo:hi])
    records[idx] = own_records


def _sort_rows(lo, hi, key_matrix) -> None:
    key_matrix[lo:hi].sort(axis=1)


def _close_phase(machine, rec) -> None:
    """Append a finished :class:`PhaseRecord` exactly as ``machine.phase``
    does on exit: advance the clock and store the record."""
    machine.elapsed += rec.duration
    machine.phases.append(rec)


def program_machine(build_program, faults, cache_kind: str, cache_key: tuple,
                    params=None, obs=None):
    """A fresh :class:`~repro.simulator.phases.PhaseMachine` for ``faults``
    and the plan's cached program, as both phase-engine routes run it.

    ``build_program(hops_of)`` makes the program on a plan-cache miss, with
    the machine's fault-aware hop metric when routes may detour and
    ``None`` (Hamming distance) when they cannot.  The program is served
    from the plan cache's ``compiled`` section under ``(cache_kind,) +
    cache_key`` (plus the fault set whenever the hop metric depends on
    it), so every route and tenant running one plan shares one program.
    """
    # Deferred: this module is imported by the ``repro.kernels`` package
    # __init__, which the sorting layer imports — a module-scope import of
    # the simulator or the plan cache would recurse into a
    # half-initialized package.
    from repro.plancache.cache import cached_compiled_program
    from repro.simulator.phases import PhaseMachine

    machine = PhaseMachine(faults.n, params=params, faults=faults, obs=obs)
    hops_of = machine.hops if faults.may_detour else None
    program = cached_compiled_program(cache_kind, cache_key, faults,
                                      lambda: build_program(hops_of))
    return machine, program


class _PhaseCosts(dict):
    """One call's phase accounting for blocks of ``k`` keys.

    As a mapping, ``hops -> (probe_t, node_t)``, filled on first use:
    ``probe_t`` is the clock of a node that only probes over ``hops``
    links, ``node_t`` that of an executed pair's ceil-half node (probe
    transfer, probe compare, first leg, return leg, merge compute, added
    in the interpreter's order, so an entry is bit-identical to the sum it
    replaces).  Every term is non-decreasing in the hop count and IEEE
    rounding is monotone, so a phase's duration is the clock of its pair
    with the most hops.
    """

    def __init__(self, par, k: int):
        super().__init__()
        from repro.simulator.phases import PhaseRecord

        self.par = par
        self.k = k
        self.record_type = PhaseRecord

    def __missing__(self, hops: int) -> tuple[float, float]:
        par, k = self.par, self.k
        first_leg, return_leg = (k + 1) // 2, k // 2
        probe_t = par.transfer_time(1, hops) + par.t_compare
        node_t = probe_t + par.transfer_time(first_leg, hops)
        if return_leg:
            node_t = node_t + par.transfer_time(return_leg, hops)
        node_t = node_t + (first_leg + k - 1) * par.t_compare
        self[hops] = entry = (probe_t, node_t)
        return entry

    def cx(self, label: str, pairs: int, executed: int, skip_h: int, live_h: int,
           hop_sum: int, live_hop_sum: int):
        """One run's record of a cx substage with ``pairs`` pairs,
        ``executed`` of them past the probe; ``skip_h``/``live_h`` are the
        most hops of a skipped/executed pair, ``hop_sum``/``live_hop_sum``
        the hops summed over all/executed pairs."""
        k = self.k
        duration = self[skip_h][0] if executed < pairs else 0.0
        if executed:
            node_t = self[live_h][1]
            if node_t > duration:
                duration = node_t
        return self.record_type(
            label,
            duration,
            2 * pairs + executed * (k + 2 * (k - 1)),
            2 * pairs + 2 * k * executed,
            2 * hop_sum + 2 * k * live_hop_sum,
            2 * pairs + (4 if k // 2 else 2) * executed,
        )

    def mirror(self, sub):
        """One run's record of mirror substage ``sub``."""
        rec = self.record_type(sub.label)
        pair_count = int(sub.a_rows.size)
        k = self.k
        if pair_count and k > 0:
            h = sub.uniform_hops
            # transfer_time is non-decreasing in hops: the slowest swap is
            # the one over the most hops.
            rec.duration = self.par.transfer_time(
                k, h if h is not None else int(sub.hops.max()))
            hop_sum = pair_count * h if h is not None else int(sub.hops.sum())
            rec.elements_sent = 2 * k * pair_count
            rec.element_hops = 2 * k * hop_sum
            rec.messages = 2 * pair_count
        return rec


def run_schedule_compiled(runs, exact_counts: bool = False):
    """Execute compiled programs on their keys as one flat array program.

    Args:
        runs: ``B >= 1`` ``(machine, program, keys)`` triples, ``machine``
            and ``program`` as :func:`program_machine` made and fetched
            them: the machine carries the run's cost constants, fault set
            and tracer.  With ``B > 1`` every program must be bound to one
            skeleton (:attr:`~repro.core.schedule.CompiledSchedule.skeleton`),
            every run's keys must make blocks of one size and every
            machine must have the same cost constants.
        exact_counts: charge exact heapsort comparison counts for the local
            sort (via the batched vectorized heapsort) instead of the
            paper's closed-form worst case.

    Programs bound to one skeleton share every pair array, so the ``B``
    runs' ``(W, k)`` key matrices are stacked into one ``(B * W, k)``
    matrix, run ``b``'s rows offset by ``b * W`` (added to the substage's
    ``(P, 2)`` pairs once), and each substage makes one probe, one
    gather, one compare-split and one scatter over every run's pairs.
    Rows of two runs never meet, so each run's rows go through exactly
    the operations its own call would make.  Only the
    accounting is per run: its own phase records, clock, ``sort.*``
    counters, tracer report, final blocks and ``sorted_keys`` buffer.  A
    call with one run does no offset arithmetic.

    The stacked matrix holds each run's int32 image
    (:func:`_key_image`) when every run has one, and its padded float64
    keys (:func:`repro.core.blocks.pad_and_chunk`) otherwise; the final
    rows are decoded run by run.

    Returns:
        One ``(sorted_keys, machine, block_size, program)`` per run, in
        order; ``machine`` carries the final per-node blocks, the
        per-phase cost records, and the elapsed clock, exactly as an
        interpreted run would leave it, and ``program`` is the executed
        :class:`~repro.core.schedule.CompiledSchedule` (its
        ``output_order`` places the result).
    """
    # Through the module, so that pad_and_chunk and strip_padding are
    # looked up at call time.
    from repro.core import blocks as key_blocks

    batch = len(runs)
    machine, program, _ = runs[0]
    par = machine.params
    t_compare = par.t_compare
    workers = program.workers
    keys_of, blocks = zip(*(key_blocks.checked_keys(keys, p.workers)
                            for _, p, keys in runs))
    sizes = [int(keys_arr.size) for keys_arr in keys_of]
    k = int(blocks[0])
    batched = batch > 1
    if batched:
        skeleton = program.skeleton
        if skeleton is None or any(
                p.skeleton is not skeleton or m.params != par or block != k
                for (m, p, _), block in zip(runs, blocks)):
            raise ValueError("a batch of runs needs one skeleton, one block size "
                             "and one set of machine parameters")
        # Run b's pairs are entries b * P .. (b + 1) * P - 1.
        offsets = (np.arange(batch, dtype=np.intp) * workers)[:, None, None]
    machines = [run[0] for run in runs]
    programs = [run[1] for run in runs]
    # The tracer hears of the phases and the sort.* counters once, after
    # the last substage: reporting each substage as it closed made a
    # traced small sort measurably slower, and nothing reads them during
    # the call.
    mirror_pairs = [0] * batch
    cx_executed = [0] * batch
    cx_skipped = [0] * batch
    sort_messages = [0] * batch
    # Active comparison injector (chaos fault universes): the flip mask is
    # a pure symmetric hash of the operand values, so the flipped probe
    # and duel verdicts below are byte-identical to the interpreted
    # engines' — the parity contract survives injection, and stacking
    # runs changes no verdict.
    inj = active_comparison()
    # The compare-split regime (module docstring), fixed for the call.
    sorted_rows = 0 < k <= _SORTED_ROWS_MAX_K and inj is None
    # The int32 image (module docstring), encoded from each run's checked
    # keys; only a call that stays on float64 builds padded float
    # matrices, and a memory injector corrupts those, so it keeps one.
    tables = None
    if k > 0 and inj is None and active_memory() is None:
        images = []
        for keys_arr in keys_of:
            encoded = _key_image(keys_arr, workers * k, sorted_rows)
            if encoded is None:
                break
            images.append(encoded)
        else:
            matrices = [image.reshape(workers, k) for image, _ in images]
            tables = [table for _, table in images]
        del images
    if tables is None:
        matrices = [key_blocks.pad_and_chunk(keys_arr, workers)[0] for keys_arr in keys_of]
    del keys_of
    key_matrix = np.concatenate(matrices) if batched else matrices[0]
    del matrices
    costs = _PhaseCosts(par, k)
    record_type = costs.record_type

    # -- local sort (step 3a) ---------------------------------------------
    # Small blocks are sorted here and stay sorted, so their extremes are
    # columns.  Big blocks stay unsorted until after the last substage;
    # ``row_min``/``row_max`` track each row's extremes, and without exact
    # counts the phase is charged in closed form and no sort runs here.
    comparisons = durations = [0] * batch
    if k > 0:
        if exact_counts:
            key_matrix, counts = heapsort_batch(key_matrix)
        else:
            from repro.sorting.heapsort import heapsort_comparisons_worst_case

            counts = np.full(workers, heapsort_comparisons_worst_case(k), dtype=np.int64)
            if sorted_rows:
                key_matrix.sort(axis=1)
        if batched and exact_counts:
            per_run = counts.reshape(batch, workers)
            comparisons = per_run.sum(axis=1).tolist()
            durations = (per_run * t_compare).max(axis=1).tolist()
        else:
            comparisons = [int(counts.sum())] * batch
            durations = [float((counts * t_compare).max())] * batch
        if sorted_rows:
            # Views: every later write to the matrix is in place.
            row_min = key_matrix[:, 0]
            row_max = key_matrix[:, k - 1]
        else:
            row_min = key_matrix.min(axis=1)
            row_max = key_matrix.max(axis=1)
        # Whole rows move as records, one per row: a fancy write of
        # records costs about half the 2-D one for small rows and ties
        # for big ones.  Taken after the local sort, since
        # ``heapsort_batch`` returns a new matrix.
        record = np.dtype((np.void, k * key_matrix.itemsize))
        records = key_matrix.view(record).reshape(-1)
    for b in range(batch):
        _close_phase(machines[b], record_type("local-heapsort", float(durations[b]),
                                              comparisons[b]))

    # -- substages ---------------------------------------------------------
    # One scratch buffer reused across substages (the allocator is
    # measurable at 100+ substages): an executed pair's two rows are
    # gathered side by side, so row t of its ``(executed, 2k)`` view is
    # pair t's union.
    max_pairs = batch * max((len(s.pairs) for s in program.substages), default=0)
    if max_pairs and k > 0:
        buf = np.empty((2 * max_pairs, k), dtype=key_matrix.dtype)
        buf_records = buf.view(record).reshape(-1)
    # Whether to split across cores is decided once per call: a call too
    # small for two chunks never looks up the budget or the helper pool
    # (nor imports repro.parallel, which pulls in multiprocessing).
    threads = 1
    min_chunk = max(1, _MIN_CHUNK_BYTES // key_matrix.itemsize)
    if key_matrix.size >= 2 * min_chunk:
        from repro.parallel import kernel_threads

        threads = kernel_threads()
    if threads > 1:
        pool = _helper_pool(threads - 1)
        lo_max_buf = np.empty(max_pairs, dtype=key_matrix.dtype)
    for index, sub in enumerate(program.substages):
        pair_count = len(sub.pairs)
        if batched:
            pairs = (sub.pairs + offsets).reshape(-1, 2)
            subs = [p.substages[index] for p in programs]
        else:
            pairs, subs = sub.pairs, (sub,)
        if sub.kind == "mirror":
            if pair_count and k > 0:
                # Fancy indexing on the right copies before the write, so
                # one assignment per array swaps the rows in place.
                ab = pairs.reshape(-1)
                ba = pairs[:, ::-1].reshape(-1)
                records[ab] = records[ba]
                if not sorted_rows:
                    row_min[ab] = row_min[ba]
                    row_max[ab] = row_max[ba]
            for b in range(batch):
                _close_phase(machines[b], costs.mirror(subs[b]))
                # The interpreter counts mirror pairs (and their two
                # messages) into the sort.* metrics even for empty blocks —
                # the phase happened, the swap was structurally real.
                mirror_pairs[b] += pair_count
            continue

        if pair_count == 0 or k == 0:
            # Empty barrier (all comparators dead, or no keys at all):
            # zero-cost record, no obs counters — like the interpreter.
            for b in range(batch):
                _close_phase(machines[b], record_type(sub.label))
            continue

        # Probe: each side ships one boundary key (its sorted block's last
        # or first key: a column of a sorted row, or a tracked extreme);
        # the pair skips the block exchange when the blocks are already
        # correctly split, and runs it when ``a_last > b_first``.
        a_last = row_max[pairs[:, 0]]
        b_first = row_min[pairs[:, 1]]
        live = a_last > b_first
        if inj is not None:
            live ^= inj.flip_pairs(a_last, b_first, kind="probe")
        if batched:
            live_by_run = live.reshape(batch, pair_count)
            executed_by_run = np.count_nonzero(live_by_run, axis=1).tolist()
            executed = sum(executed_by_run)
        else:
            executed = int(np.count_nonzero(live))
        if executed:
            # The executed pairs' rows, interleaved: pair t's min-keeper
            # at 2t, its max-keeper at 2t + 1, as the buffer holds them.
            rows = np.compress(live, pairs, axis=0).reshape(-1)
            gathered = buf[:2 * executed]
            gathered_records = buf_records[:2 * executed]
            if not sorted_rows:
                live_a, live_b = rows[0::2], rows[1::2]
            if inj is not None:
                # ``mode="clip"``: the default ``"raise"`` buffers ``out``;
                # program indices are in range by construction.
                np.take(records, rows, out=gathered_records, mode="clip")
                # Flip decisions depend on where keys sit in sorted
                # blocks, so the lying duel runs on sorted rows exactly as
                # the interpreter's does.
                gathered.sort(axis=1)
                a = gathered[0::2]
                b_rev = gathered[1::2, ::-1]
                le = (a <= b_rev) ^ inj.flip_pairs(a, b_rev)
                lo = np.where(le, a, b_rev)
                hi = np.where(le, b_rev, a)
                gathered[0::2] = lo
                gathered[1::2] = hi
                lo_min, lo_max = lo.min(axis=1), lo.max(axis=1)
                hi_min, hi_max = hi.min(axis=1), hi.max(axis=1)
                records[rows] = gathered_records
            else:
                # A compare-split keeps the k smallest keys of the union
                # on the min side: a merge is not needed.  Small blocks
                # sort the union, which keeps both rows sorted; big ones
                # select.
                union = gathered.reshape(executed, 2 * k)
                chunks = min(threads, executed, 2 * k * executed // min_chunk)
                if chunks > 1:
                    lo_max = None if sorted_rows else lo_max_buf[:executed]
                    _in_chunks(pool, chunks, executed, _split_pairs,
                               records, rows, gathered, lo_max, k)
                else:
                    # _split_pairs's steps, inline: calling it here made
                    # 2,048-key sorts about 10% slower.
                    np.take(records, rows, out=gathered_records, mode="clip")
                    if sorted_rows:
                        union.sort(axis=1)
                    else:
                        union.partition(k, axis=1)
                        # Position k - 1 holds the min side's maximum in
                        # most rows but not all: partition only orders
                        # around the kth key.
                        lo_max = union[:, :k].max(axis=1)
                    records[rows] = gathered_records
                if not sorted_rows:
                    lo_min = np.minimum(row_min[live_a], row_min[live_b])
                    hi_max = np.maximum(row_max[live_a], row_max[live_b])
                    hi_min = union[:, k]
            if not sorted_rows:
                row_min[live_a] = lo_min
                row_max[live_a] = lo_max
                row_min[live_b] = hi_min
                row_max[live_b] = hi_max

        # Accounting, per run: its own hops and executed count.
        if not batched:
            h = sub.uniform_hops
            skipped = pair_count - executed
            if h is not None:
                skip_h = live_h = h
                hop_sum = pair_count * h
                live_hop_sum = executed * h
            else:
                hops = sub.hops
                live_hops = hops[live]
                skip_h = int(hops[~live].max()) if skipped else 0
                live_h = int(live_hops.max()) if executed else 0
                hop_sum = int(hops.sum())
                live_hop_sum = int(live_hops.sum())
            rec = costs.cx(sub.label, pair_count, executed, skip_h, live_h,
                           hop_sum, live_hop_sum)
            _close_phase(machine, rec)
            cx_executed[0] += executed
            cx_skipped[0] += skipped
            sort_messages[0] += rec.messages
            continue
        uniform = [s.uniform_hops for s in subs]
        if None in uniform:
            hops = np.stack([s.hops for s in subs])
            live_hops = np.where(live_by_run, hops, 0)
            terms = zip(executed_by_run,
                        np.where(live_by_run, 0, hops).max(axis=1).tolist(),
                        live_hops.max(axis=1).tolist(),
                        hops.sum(axis=1).tolist(),
                        live_hops.sum(axis=1).tolist())
        else:
            terms = ((e, h, h, pair_count * h, e * h)
                     for e, h in zip(executed_by_run, uniform))
        for b, (run_executed, skip_h, live_h, hop_sum, live_hop_sum) in enumerate(terms):
            rec = costs.cx(sub.label, pair_count, run_executed, skip_h, live_h,
                           hop_sum, live_hop_sum)
            _close_phase(machines[b], rec)
            cx_executed[b] += run_executed
            cx_skipped[b] += pair_count - run_executed
            sort_messages[b] += rec.messages

    if not sorted_rows:
        # Every row now holds its final multiset; one sort puts each in
        # order.
        rows_total = batch * workers
        chunks = min(threads, rows_total, key_matrix.size // min_chunk)
        if chunks > 1:
            _in_chunks(pool, chunks, rows_total, _sort_rows, key_matrix)
        else:
            key_matrix.sort(axis=1)

    results = []
    for b, machine in enumerate(machines):
        program = programs[b]
        if machine.obs.enabled:
            # Phase start times re-add the durations in the clock's order.
            starts, t = [], 0.0
            for rec in machine.phases:
                starts.append(t)
                t += rec.duration
            machine._record_phases(machine.phases, starts)
            met = machine.obs.metrics
            for name, total in (("sort.mirror.pairs", mirror_pairs[b]),
                                ("sort.cx.executed", cx_executed[b]),
                                ("sort.cx.skipped", cx_skipped[b]),
                                ("sort.messages", sort_messages[b] + 2 * mirror_pairs[b])):
                if total:
                    met.inc(name, total)

        # -- gather --------------------------------------------------------
        # Blocks are handed out as row views of the (now final) key
        # matrix — the run is over, nothing mutates it again, and rows
        # never alias each other.  ``sorted_keys`` gets its own buffer so
        # callers may modify it freely, matching the interpreter's
        # ``np.concatenate`` result.
        rows = key_matrix[b * workers:(b + 1) * workers] if batched else key_matrix
        if tables is not None:
            rows = _decode(rows, tables[b])
        for t, addr in enumerate(program.output_order):
            machine.blocks[addr] = rows[t]
        flat = rows.reshape(-1).copy()
        results.append((key_blocks.strip_padding(flat, sizes[b]), machine, k, program))
    return results
