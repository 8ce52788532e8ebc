"""The ``compiled`` backend: whole-schedule execution as a flat array program.

The ``numpy`` backend vectorizes *within* a substage but the phase engine
still walks per-processor Python objects between substages — block dicts,
per-pair charge calls, per-pair probe decisions.  This tier removes that
interpreter entirely: :func:`repro.core.schedule.lower_schedule` turns the
static :class:`~repro.core.schedule.SortSchedule` into per-substage index
arrays over one ``(workers, block)`` key matrix, and
:func:`run_schedule_compiled` executes each substage as a handful of numpy
operations — one vectorized probe, a gather of the executed pairs, one
batched selection, one scatter — with the paper's comparison/traffic
accounting computed in *closed form* per substage.

A compare-split only has to leave the ``k`` smallest keys of a pair's
union on the min side, and a probe only reads a block's extremes.  So the
executor keeps each row as an unsorted multiset plus its tracked minimum
and maximum: ``ndarray.partition`` does the split (a selection, not the
paper's linear merge), and every row is sorted once, after the last
substage.  The final rows, and hence every output, are what merging
would have produced.

A substage's compare-splits touch disjoint rows, so a big enough call
cuts the executed pairs into contiguous chunks, one per core the process
may use (:func:`repro.parallel.kernel_threads`).  The calling thread runs
the first chunk's gather, selection and scatter while helper threads run
the others; numpy releases the GIL inside each of those calls.  The
final row sort is cut the same way.  Each chunk owns its own rows and
buffer slices, and everything else (the probe, the accounting, mirror
swaps) stays on the calling thread, so the split cannot change an
output.

Exactness is the contract, not an aspiration:

* sorted output, per-phase :class:`~repro.simulator.phases.PhaseRecord`
  counters, the ``sort.*`` observability counters, **and the simulated
  clock** are identical to the interpreted ``loop``/``numpy`` engines —
  bit-for-bit, including IEEE-754 float accumulation order (the executor
  replicates the interpreter's per-node addition sequence exactly);
* the parity suite in ``tests/kernels/`` asserts all of the above across
  dimensions, fault plans, block skews, and plan-cache warm replay.

:class:`CompiledBackend` subclasses :class:`NumpyBackend`, so every code
path that is *not* schedule-driven (the SPMD machine's per-message kernels,
``merge_split``) transparently degrades to the vectorized numpy kernels.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.faults.injectors import active_comparison
from repro.kernels.numpy_backend import NumpyBackend, heapsort_batch

__all__ = ["CompiledBackend", "run_schedule_compiled"]

#: Fewest keys worth a chunk of their own: union keys (2k per executed
#: pair) for a substage, row keys for the final sort.  Below it a helper
#: thread's hand-off costs more than the chunk's work saves.  Measured
#: crossover: docs/PERFORMANCE.md §1, "Substages across cores".
_MIN_CHUNK_KEYS = 1 << 16


class CompiledBackend(NumpyBackend):
    """Numpy kernels plus whole-schedule flat-array execution.

    The flag :attr:`schedule_compiled` is what the phase-engine entry points
    (:func:`repro.core.ftsort.fault_tolerant_sort`,
    :func:`repro.core.single_fault.single_fault_bitonic_sort`, …) test to
    route a run through :func:`run_schedule_compiled` instead of the
    per-pair interpreter.  Paths the compiler does not model (the
    ``step8="full-sort"`` ablation, per-phase ``observer`` callbacks, the
    SPMD discrete-event machine) fall back to the inherited numpy kernels.
    """

    name = "compiled"
    schedule_compiled = True


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


def _split_pairs(lo, hi, key_matrix, rows, pairs, lo_max, k) -> None:
    """Compare-split executed pairs ``lo..hi-1``, allocating nothing: they
    own ``rows[2lo:2hi]``, ``pairs[2lo:2hi]`` and ``lo_max[lo:hi]``."""
    idx = rows[2 * lo:2 * hi]
    own = pairs[2 * lo:2 * hi]
    np.take(key_matrix, idx, axis=0, out=own, mode="clip")
    union = own.reshape(hi - lo, 2 * k)
    union.partition(k, axis=1)
    np.max(union[:, :k], axis=1, out=lo_max[lo:hi])
    key_matrix[idx] = own


def _sort_rows(lo, hi, key_matrix) -> None:
    key_matrix[lo:hi].sort(axis=1)


def _close_phase(machine, rec) -> None:
    """Append a finished :class:`PhaseRecord` exactly as ``machine.phase``
    does on exit: advance the clock, store the record, report to obs."""
    started_at = machine.elapsed
    machine.elapsed += rec.duration
    machine.phases.append(rec)
    if machine.obs.enabled:
        machine._record_phase(rec, started_at)


def run_schedule_compiled(
    schedule,
    keys,
    faults,
    params=None,
    obs=None,
    exact_counts: bool = False,
    cache_kind: str | None = None,
    cache_key: tuple | None = None,
):
    """Execute ``schedule`` on ``keys`` as a flat array program.

    Args:
        schedule: a :class:`~repro.core.schedule.SortSchedule`.
        faults: the run's :class:`~repro.faults.model.FaultSet` (drives the
            hop metric and the machine's fault bookkeeping).
        params: machine cost constants (default NCUBE/7).
        obs: optional tracer; phase spans and the ``sort.*`` /
            ``phase.*`` counters are emitted with the interpreter's exact
            semantics.
        exact_counts: charge exact heapsort comparison counts for the local
            sort (via the batched vectorized heapsort) instead of the
            paper's closed-form worst case.
        cache_kind / cache_key: when given, the lowered program is served
            from the plan cache's ``compiled`` section under
            ``(cache_kind,) + cache_key`` (plus the fault set whenever the
            hop metric depends on it) — multi-tenant jobs sharing a plan
            also share the compiled program.

    Returns:
        ``(sorted_keys, machine, block_size)``; ``machine`` is a
        :class:`~repro.simulator.phases.PhaseMachine` carrying the final
        per-node blocks, the per-phase cost records, and the elapsed clock,
        exactly as an interpreted run would leave it.
    """
    # Core/simulator imports are deferred: this module is imported by the
    # ``repro.kernels`` package __init__, which the sorting layer imports —
    # a module-scope import of either would recurse into a half-initialized
    # package.
    from repro.core.blocks import pad_and_chunk, strip_padding
    from repro.core.schedule import lower_schedule
    from repro.plancache.cache import cached_compiled_program
    from repro.simulator.phases import PhaseMachine, PhaseRecord

    machine = PhaseMachine(schedule.n, params=params, faults=faults, obs=obs)
    par = machine.params
    t_compare = par.t_compare

    def lower() -> object:
        return lower_schedule(schedule, machine.hops)

    if cache_kind is not None and cache_key is not None:
        program = cached_compiled_program(cache_kind, cache_key, machine.faults, lower)
    else:
        program = lower()

    keys_arr = np.asarray(keys, dtype=float)
    key_matrix, block = pad_and_chunk(keys_arr, schedule.workers)
    k = int(block)
    obs_on = machine.obs.enabled
    met = machine.obs.metrics if obs_on else None
    # Active comparison injector (chaos fault universes): the flip mask is
    # a pure symmetric hash of the operand values, so the flipped probe
    # and duel verdicts below are byte-identical to the interpreted
    # engines' — the parity contract survives injection.
    inj = active_comparison()

    # -- local sort (step 3a) ---------------------------------------------
    # Rows stay unsorted until after the last substage (module docstring);
    # ``row_min``/``row_max`` track each row's extremes.  Without exact
    # counts the phase is charged in closed form and no sort runs here.
    rec = PhaseRecord("local-heapsort")
    if k > 0:
        if exact_counts:
            key_matrix, counts = heapsort_batch(key_matrix)
        else:
            from repro.sorting.heapsort import heapsort_comparisons_worst_case

            counts = np.full(
                schedule.workers, heapsort_comparisons_worst_case(k), dtype=np.int64
            )
        rec.comparisons = int(counts.sum())
        rec.duration = float((counts * t_compare).max())
        row_min = key_matrix.min(axis=1)
        row_max = key_matrix.max(axis=1)
    _close_phase(machine, rec)

    # -- substages ---------------------------------------------------------
    # One scratch buffer reused across substages (the allocator is
    # measurable at 100+ substages): an executed pair's two rows are
    # gathered side by side, so row t of its ``(executed, 2k)`` view is
    # pair t's union.
    max_pairs = max((int(s.a_rows.size) for s in program.substages), default=0)
    if max_pairs and k > 0:
        buf = np.empty((2 * max_pairs, k))
    # Whether to split across cores is decided once per call: a call too
    # small for two chunks never looks up the budget or the helper pool
    # (nor imports repro.parallel, which pulls in multiprocessing).
    threads = 1
    if key_matrix.size >= 2 * _MIN_CHUNK_KEYS:
        from repro.parallel import kernel_threads

        threads = kernel_threads()
    if threads > 1:
        pool = _helper_pool(threads - 1)
        lo_max_buf = np.empty(max_pairs)
    for sub in program.substages:
        rec = PhaseRecord(sub.label)
        pair_count = int(sub.a_rows.size)
        hops = sub.hops
        h = sub.uniform_hops
        if sub.kind == "mirror":
            if pair_count and k > 0:
                # transfer_time is non-decreasing in hops: the slowest
                # swap is the one over the most hops.
                rec.duration = par.transfer_time(k, h if h is not None else int(hops.max()))
                hop_sum = pair_count * h if h is not None else int(hops.sum())
                rec.elements_sent = 2 * k * pair_count
                rec.element_hops = 2 * k * hop_sum
                rec.messages = 2 * pair_count
                # Fancy indexing on the right copies before the write, so
                # one assignment per array swaps the rows in place.
                ab = np.concatenate((sub.a_rows, sub.b_rows))
                ba = np.concatenate((sub.b_rows, sub.a_rows))
                key_matrix[ab] = key_matrix[ba]
                row_min[ab] = row_min[ba]
                row_max[ab] = row_max[ba]
            _close_phase(machine, rec)
            # The interpreter counts mirror pairs (and their two messages)
            # into the sort.* metrics even for empty blocks — the phase
            # happened, the swap was structurally real.
            if obs_on and pair_count:
                met.inc("sort.mirror.pairs", pair_count)
                met.inc("sort.messages", 2 * pair_count)
            continue

        if pair_count == 0 or k == 0:
            # Empty barrier (all comparators dead, or no keys at all):
            # zero-cost record, no obs counters — like the interpreter.
            _close_phase(machine, rec)
            continue

        # Probe: each side ships one boundary key (its sorted block's last
        # or first key: the tracked extremes); the pair skips the block
        # exchange when the blocks are already correctly split.
        a_last = row_max[sub.a_rows]
        b_first = row_min[sub.b_rows]
        skip = a_last <= b_first
        if inj is not None:
            skip = skip ^ inj.flip_pairs(a_last, b_first, kind="probe")
        live = ~skip
        executed = int(live.sum())
        skipped = pair_count - executed
        first_leg = (k + 1) // 2
        return_leg = k // 2
        if h is not None:
            skip_h = live_h = h
            hop_sum = pair_count * h
            live_hop_sum = executed * h
        else:
            live_hops = hops[live]
            skip_h = int(hops[skip].max()) if skipped else 0
            live_h = int(live_hops.max()) if executed else 0
            hop_sum = int(hops.sum())
            live_hop_sum = int(live_hops.sum())
        # Per-node clock, replicating the interpreter's addition order:
        # probe transfer, probe compare, first leg, return leg, merge
        # compute.  The phase duration is the max — always attained at a
        # probed-only node or an executed pair's ceil-half node.  Every
        # term is non-decreasing in the pair's hop count and IEEE rounding
        # is monotone, so each max is the clock of the pair with the most
        # hops, computed once.
        duration = par.transfer_time(1, skip_h) + t_compare if skipped else 0.0
        comparisons = 2 * pair_count
        elements_sent = 2 * pair_count
        element_hops = 2 * hop_sum
        messages = 2 * pair_count
        if executed:
            live_a = sub.a_rows[live]
            live_b = sub.b_rows[live]
            rows = np.stack((live_a, live_b), axis=1).reshape(-1)
            pairs = buf[:2 * executed]
            if inj is not None:
                # ``mode="clip"``: the default ``"raise"`` buffers ``out``;
                # lowered indices are in range by construction.
                np.take(key_matrix, rows, axis=0, out=pairs, mode="clip")
                # Flip decisions depend on where keys sit in sorted
                # blocks, so the lying duel runs on sorted rows exactly as
                # the interpreter's does.
                pairs.sort(axis=1)
                a = pairs[0::2]
                b_rev = pairs[1::2, ::-1]
                le = (a <= b_rev) ^ inj.flip_pairs(a, b_rev)
                lo = np.where(le, a, b_rev)
                hi = np.where(le, b_rev, a)
                pairs[0::2] = lo
                pairs[1::2] = hi
                lo_min, lo_max = lo.min(axis=1), lo.max(axis=1)
                hi_min, hi_max = hi.min(axis=1), hi.max(axis=1)
                key_matrix[rows] = pairs
            else:
                # A compare-split keeps the k smallest keys of the union
                # on the min side: a selection, not a merge.
                union = pairs.reshape(executed, 2 * k)
                chunks = min(threads, executed, 2 * k * executed // _MIN_CHUNK_KEYS)
                if chunks > 1:
                    lo_max = lo_max_buf[:executed]
                    _in_chunks(pool, chunks, executed, _split_pairs,
                               key_matrix, rows, pairs, lo_max, k)
                else:
                    # _split_pairs's steps, inline: calling it here made
                    # 2,048-key sorts about 10% slower.
                    np.take(key_matrix, rows, axis=0, out=pairs, mode="clip")
                    union.partition(k, axis=1)
                    # Position k - 1 holds the min side's maximum in most
                    # rows but not all: partition only orders around the
                    # kth key.
                    lo_max = union[:, :k].max(axis=1)
                    key_matrix[rows] = pairs
                lo_min = np.minimum(row_min[live_a], row_min[live_b])
                hi_max = np.maximum(row_max[live_a], row_max[live_b])
                hi_min = union[:, k]
            row_min[live_a] = lo_min
            row_max[live_a] = lo_max
            row_min[live_b] = hi_min
            row_max[live_b] = hi_max
            node_t = par.transfer_time(1, live_h) + t_compare
            node_t = node_t + par.transfer_time(first_leg, live_h)
            if return_leg:
                node_t = node_t + par.transfer_time(return_leg, live_h)
            node_t = node_t + (first_leg + k - 1) * t_compare
            if node_t > duration:
                duration = node_t
            comparisons += executed * (k + 2 * (k - 1))
            elements_sent += 2 * k * executed
            element_hops += 2 * (first_leg + return_leg) * live_hop_sum
            messages += (4 if return_leg else 2) * executed
        rec.duration = duration
        rec.comparisons = comparisons
        rec.elements_sent = elements_sent
        rec.element_hops = element_hops
        rec.messages = messages
        _close_phase(machine, rec)
        if obs_on:
            if executed:
                met.inc("sort.cx.executed", executed)
            if skipped:
                met.inc("sort.cx.skipped", skipped)
            met.inc("sort.messages", messages)

    # Every row now holds its final multiset; one sort puts each in order.
    chunks = min(threads, schedule.workers, key_matrix.size // _MIN_CHUNK_KEYS)
    if chunks > 1:
        _in_chunks(pool, chunks, schedule.workers, _sort_rows, key_matrix)
    else:
        key_matrix.sort(axis=1)

    # -- gather ------------------------------------------------------------
    # Blocks are handed out as row views of the (now final) key matrix —
    # the run is over, nothing mutates it again, and rows never alias each
    # other.  ``sorted_keys`` gets its own buffer so callers may modify it
    # freely, matching the interpreter's ``np.concatenate`` result.
    for t, addr in enumerate(schedule.output_order):
        machine.blocks[addr] = key_matrix[t]
    gathered = key_matrix.reshape(-1).copy()
    sorted_keys = strip_padding(gathered, int(keys_arr.size))
    return sorted_keys, machine, k
