"""The full host workflow on the discrete-event machine, and its supervisor.

One combined SPMD program per working processor: receive your key block
from the host (tree scatter), run the fault-tolerant sort's comparator
schedule, return your sorted block (tree gather).  Per-segment times are
measured at the barrier-free boundaries (max over processor clocks after
each segment), which quantifies exactly the cost the paper's measurements
exclude.

:func:`supervised_sort` generalizes :mod:`repro.core.recovery` into a
full supervisor (see docs/ROBUSTNESS.md): mid-run processor and link
faults — any number within the paper's model, arriving at any point of
steps 1-8 including distribution/collection — are detected on-line
(watchdog + neighbor-test confirmation on the SPMD backend, barrier-level
cuts on the phase backend), victim blocks are rescued, the partition/
selection is re-planned for the enlarged fault set, and the sort re-runs
until it completes.  The re-run is charged in full from the original keys
(the :mod:`~repro.core.recovery` convention), so the reported recovery
overhead is an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.ftcollect import fault_free_bfs_tree, tree_gather, tree_scatter
from repro.core.blocks import pad_and_chunk, strip_padding
from repro.core.ftsort import fault_tolerant_sort
from repro.core.schedule import SortSchedule
from repro.core.spmd_sort import (
    _cx_program_step,
    _mirror_program_step,
    _rank_ops,
    _schedule_for,
)
from repro.cube.address import hamming_distance, validate_address, validate_dimension
from repro.faults.detect import DetectionRecord, OnlineDiagnoser
from repro.faults.model import FaultKind, FaultSet
from repro.obs.spans import PID_SIM, TID_ALGO
from repro.simulator.params import MachineParams
from repro.simulator.phases import PhaseMachine
from repro.simulator.spmd import Proc, ReliabilityPolicy, SpmdMachine
from repro.sorting.heapsort import heapsort

__all__ = [
    "FaultEvent",
    "HostSession",
    "RecoveryAttempt",
    "SupervisedSort",
    "sort_session",
    "supervised_sort",
]


@dataclass(frozen=True)
class HostSession:
    """Outcome of a full distribute-sort-collect session.

    Attributes:
        sorted_keys: the ascending result, as assembled on the host
            (``None`` for a detection-aborted supervised run).
        host: the host processor's address.
        distribution_time: max processor clock after the scatter.
        sort_time: additional time spent in the sort proper.
        collection_time: additional time for the gather.
        total_time: machine finish time (= sum of the three segments up to
            overlap slack).
        machine: the SPMD machine.
        schedule: the executed comparator schedule.
    """

    sorted_keys: np.ndarray | None
    host: int
    distribution_time: float
    sort_time: float
    collection_time: float
    total_time: float
    machine: SpmdMachine
    schedule: SortSchedule


def sort_session(
    keys: np.ndarray | list,
    n: int,
    faults: FaultSet | list[int] | tuple[int, ...],
    params: MachineParams | None = None,
    fault_kind: FaultKind = FaultKind.PARTIAL,
    host: int | None = None,
    obs=None,
    machine_opts: dict | None = None,
    before_run=None,
    allow_abort: bool = False,
) -> HostSession:
    """Distribute ``keys`` from a host, sort fault-tolerantly, collect back.

    ``host`` defaults to the lowest-addressed working processor.  The sort
    segment reproduces :func:`repro.core.spmd_sort.spmd_fault_tolerant_sort`
    exactly; the scatter/gather segments add the tree-collective costs the
    paper excludes from its measurements.

    ``obs`` is an optional :class:`repro.obs.Tracer`: the machine records
    the full message lifecycle and the session adds one span per segment
    (``host.distribute`` / ``host.sort`` / ``host.collect``) on the
    algorithm timeline.

    Supervision hooks (used by :func:`supervised_sort`; all default to the
    plain behavior): ``machine_opts`` is forwarded to the
    :class:`SpmdMachine` constructor (``diagnoser``/``detect_timeout``/
    ``reliable``); ``before_run`` is called with the machine before it
    runs (to schedule mid-run faults); with ``allow_abort`` a
    detection-aborted run returns a :class:`HostSession` whose
    ``sorted_keys`` is ``None`` instead of raising.
    """
    validate_dimension(n)
    fault_set = faults if isinstance(faults, FaultSet) else FaultSet(n, faults, kind=fault_kind)
    if fault_set.n != n:
        raise ValueError(f"fault set is for Q_{fault_set.n}, expected Q_{n}")
    fault_set, schedule = _schedule_for(n, fault_set)

    if host is None:
        host = min(schedule.output_order)
    if host not in schedule.output_order:
        raise ValueError(f"host {host} must be a working processor")
    tree = fault_free_bfs_tree(fault_set, host)

    keys_arr = np.asarray(keys, dtype=float)
    chunks, block_size = pad_and_chunk(keys_arr, schedule.workers)
    chunk_of = {rank: chunk for rank, chunk in zip(schedule.output_order, chunks)}

    plan = _rank_ops(schedule)

    checkpoints: dict[int, tuple[float, float]] = {}
    gathered_holder: dict[str, dict[int, np.ndarray] | None] = {"blocks": None}
    workers = set(schedule.output_order)

    def program(proc: Proc):
        # Segment 1 — distribution (host-held chunks travel the tree).
        payload = chunk_of if proc.rank == tree.root else None
        my_chunk = yield from tree_scatter(proc, tree, payload, chunk_size=block_size)
        if proc.rank in workers:
            block = np.asarray(my_chunk if my_chunk is not None else np.empty(0))
        else:
            block = np.empty(0)
        t_after_scatter = proc.clock

        # Segment 2 — the sort.
        if proc.rank in workers and block.size:
            block, comps = heapsort(block)
            yield proc.compute(comps)
        for idx, op in plan.get(proc.rank, ()):
            if op[0] == "cx":
                _, partner, i_am_low, keep_min = op
                if block.size == 0:
                    continue
                block = yield from _cx_program_step(
                    proc, block, partner, i_am_low, keep_min, tag_base=1000 + idx * 4
                )
            else:
                block = yield from _mirror_program_step(proc, block, op[1],
                                                        tag=1000 + idx * 4)
        t_after_sort = proc.clock
        checkpoints[proc.rank] = (t_after_scatter, t_after_sort)

        # Segment 3 — collection.
        result = yield from tree_gather(proc, tree, block, chunk_size=block_size)
        if result is not None:
            gathered_holder["blocks"] = {
                rank: np.asarray(v) for rank, v in result.items()
            }

    machine = SpmdMachine(n, faults=fault_set, params=params, obs=obs,
                          **(machine_opts or {}))
    if before_run is not None:
        before_run(machine)
    # Relay-only ranks (normal processors outside the working set, e.g.
    # dangling ones) also run the program so the tree stays connected.
    participants = sorted(tree.members())
    finish = machine.run({rank: program for rank in participants})

    if machine.aborted:
        if not allow_abort:
            raise RuntimeError(
                f"session aborted on confirmed fault {machine.abort_record}"
            )
        return HostSession(
            sorted_keys=None,
            host=host,
            distribution_time=0.0,
            sort_time=0.0,
            collection_time=0.0,
            total_time=finish,
            machine=machine,
            schedule=schedule,
        )

    blocks = gathered_holder["blocks"]
    assert blocks is not None, "gather never completed"
    flat = np.concatenate(
        [blocks[rank] for rank in schedule.output_order]
    ) if schedule.workers else np.empty(0)
    sorted_keys = strip_padding(flat, int(keys_arr.size))

    dist_t = max(t for t, _ in checkpoints.values())
    sort_t = max(t for _, t in checkpoints.values()) - dist_t
    coll_t = finish - dist_t - sort_t
    if machine.obs.enabled:
        tracer = machine.obs
        tracer.name_thread(TID_ALGO, "algorithm steps", pid=PID_SIM)
        for name, ts, dur in (
            ("host.distribute", 0.0, dist_t),
            ("host.sort", dist_t, sort_t),
            ("host.collect", dist_t + sort_t, coll_t),
        ):
            tracer.complete(name, ts=ts, dur=dur, cat="segment",
                            pid=PID_SIM, tid=TID_ALGO)
        tracer.metrics.set_gauge("host.distribution_time", dist_t)
        tracer.metrics.set_gauge("host.sort_time", sort_t)
        tracer.metrics.set_gauge("host.collection_time", coll_t)
    return HostSession(
        sorted_keys=sorted_keys,
        host=host,
        distribution_time=dist_t,
        sort_time=sort_t,
        collection_time=coll_t,
        total_time=finish,
        machine=machine,
        schedule=schedule,
    )


# -- supervised recovery -------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """A fault scheduled to arrive mid-run, on the global supervised timeline.

    Attributes:
        kind: ``"processor"`` or ``"link"``.
        subject: processor address, or ``(a, b)`` link endpoints (a cube
            edge).
        at: absolute arrival time on the supervised timeline (attempts,
            rescues and redistributions accumulate; an event whose time has
            passed when a re-run starts strikes it immediately).
    """

    kind: str
    subject: int | tuple[int, int]
    at: float

    def validate(self, n: int) -> "FaultEvent":
        if self.kind not in ("processor", "link"):
            raise ValueError(f"event kind must be 'processor' or 'link', got {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"event time must be >= 0, got {self.at}")
        if self.kind == "processor":
            validate_address(int(self.subject), n)
        else:
            a, b = self.subject
            validate_address(a, n)
            validate_address(b, n)
            if hamming_distance(a, b) != 1:
                raise ValueError(f"link {a}-{b} is not a hypercube edge")
        return self


@dataclass(frozen=True)
class RecoveryAttempt:
    """One supervised attempt: either the completing run or a written-off one.

    Attributes:
        processors: faulty processors the attempt planned around.
        links: dead links ``(a, b)`` the attempt planned around.
        completed: whether this attempt produced the final result.
        elapsed: time charged — the full run when completed, else wasted
            work through the detection cut plus confirmation time.
        redistribution_time: time to move blocks onto this attempt's
            working set (0 for the first attempt).
        rescue_time: time to pull the victim's block to its rescuer after
            this attempt aborted (0 when completed or no block to rescue).
        detection: the confirming :class:`DetectionRecord` of the fault
            that aborted this attempt (``None`` when completed).
    """

    processors: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    completed: bool
    elapsed: float
    redistribution_time: float = 0.0
    rescue_time: float = 0.0
    detection: DetectionRecord | None = None


@dataclass(frozen=True)
class SupervisedSort:
    """Outcome of :func:`supervised_sort`.

    Attributes:
        sorted_keys: the final (correct) ascending result.
        backend: ``"phase"`` or ``"spmd"``.
        attempts: every attempt in order; the last one completed.
        detections: the diagnoser's full decision log (confirmations,
            cleared false suspicions, probed links).
        final_faults: the fault view the completing attempt ran with.
        total_time: supervised end-to-end time (wasted attempts +
            detection + rescues + redistributions + the completing run).
    """

    sorted_keys: np.ndarray
    backend: str
    attempts: tuple[RecoveryAttempt, ...]
    detections: tuple[DetectionRecord, ...]
    final_faults: FaultSet
    total_time: float

    @property
    def recoveries(self) -> int:
        """Number of detection-triggered re-plans."""
        return sum(1 for a in self.attempts if not a.completed)

    @property
    def wasted_time(self) -> float:
        """Work written off across aborted attempts (incl. confirmation)."""
        return sum(a.elapsed for a in self.attempts if not a.completed)

    @property
    def rescue_time(self) -> float:
        return sum(a.rescue_time for a in self.attempts)

    @property
    def redistribution_time(self) -> float:
        return sum(a.redistribution_time for a in self.attempts)

    @property
    def final_sort_time(self) -> float:
        """Elapsed time of the completing attempt alone."""
        return self.attempts[-1].elapsed

    @property
    def recovery_overhead(self) -> float:
        """total / completing-run time: cost of not knowing the faults
        up front (>= 1; 1.0 when nothing struck)."""
        return self.total_time / self.final_sort_time if self.final_sort_time else 1.0


def _rescue_block(
    n: int,
    view: FaultSet,
    victim: int,
    holders: list[int],
    block_size: int,
    params: MachineParams,
) -> tuple[int, float]:
    """Nearest working survivor pulls the victim's block (partial model:
    the victim's memory and links survive).  Returns (rescuer, time)."""
    survivors = [p for p in holders if p != victim]
    rescuer = min(survivors, key=lambda p: (hamming_distance(p, victim), p))
    machine = PhaseMachine(n, params=params, faults=view)
    with machine.phase("rescue"):
        machine.charge_transfer(victim, rescuer, block_size, hops=None)
    return rescuer, machine.elapsed


def _redistribution_time(
    n: int,
    view: FaultSet,
    old_holders: list[int],
    new_holders: tuple[int, ...],
    block_size: int,
    params: MachineParams,
) -> float:
    """Time to rebalance blocks onto the new working set (one parallel
    phase, the :mod:`~repro.core.recovery` model)."""
    machine = PhaseMachine(n, params=params, faults=view)
    with machine.phase("redistribute"):
        for src, dst in zip(old_holders, new_holders):
            if src == dst:
                continue
            machine.charge_transfer(src, dst, block_size, hops=None)
    return machine.elapsed


def supervised_sort(
    keys: np.ndarray | list,
    n: int,
    faults: FaultSet | list[int] | tuple[int, ...] = (),
    events: list[FaultEvent] | tuple[FaultEvent, ...] = (),
    backend: str = "phase",
    params: MachineParams | None = None,
    obs=None,
    rng: int | np.random.Generator | None = None,
    detect_timeout: float | None = None,
    reliability: ReliabilityPolicy | None = None,
    probe_rtt: float | None = None,
    max_attempts: int | None = None,
) -> SupervisedSort:
    """Sort under mid-run faults with on-line detection and recovery.

    The supervisor runs the sort, reacts to every detection — any number
    of processor or link faults within the paper's model, arriving at any
    point including distribution/collection — by stopping at the
    consistent cut, confirming the suspect through the
    :class:`~repro.faults.detect.OnlineDiagnoser`, rescuing the victim's
    block, re-planning for the enlarged fault set and re-sorting, until an
    attempt completes.  The data plane re-sorts the original keys (the
    :mod:`~repro.core.recovery` convention: the re-run is charged in full,
    recovery overhead is an upper bound).

    Args:
        keys: finite keys, any order.
        n: hypercube dimension.
        faults: statically known (off-line diagnosed) faults; must be the
            *partial* model — recovery depends on victim memory surviving.
        events: mid-run :class:`FaultEvent` arrivals on the global
            supervised timeline.
        backend: ``"phase"`` (barrier-level cuts located by
            :meth:`~repro.simulator.phases.PhaseMachine.cut_at`) or
            ``"spmd"`` (live watchdog detection, reliable messaging, and
            abort on the discrete-event machine).
        params: machine cost constants.
        obs: optional :class:`repro.obs.Tracer`; attempts record their
            usual spans and the supervisor adds the ``robust.*`` summary
            metrics.
        rng: seed for the diagnoser's test model.
        detect_timeout: SPMD recv-watchdog timeout (default
            ``50 * t_startup``).
        reliability: SPMD ACK/retry policy (default
            :class:`~repro.simulator.spmd.ReliabilityPolicy`).
        probe_rtt: charged time of one neighbor-test round (default one
            1-element round trip).
        max_attempts: safety cap (default ``2**n + 1``).

    Returns:
        :class:`SupervisedSort` — correct sorted keys plus the complete
        recovery anatomy.
    """
    validate_dimension(n)
    if backend not in ("phase", "spmd"):
        raise ValueError(f"backend must be 'phase' or 'spmd', got {backend!r}")
    params = params if params is not None else MachineParams.ncube7()
    base = faults if isinstance(faults, FaultSet) else FaultSet(n, faults, kind=FaultKind.PARTIAL)
    if base.n != n:
        raise ValueError(f"fault set is for Q_{base.n}, expected Q_{n}")
    if base.kind is not FaultKind.PARTIAL:
        raise ValueError("supervised recovery requires the partial fault model")
    events = sorted((ev.validate(n) for ev in events), key=lambda ev: ev.at)
    if probe_rtt is None:
        probe_rtt = 2 * (params.t_startup + params.t_element)
    if detect_timeout is None:
        detect_timeout = 50.0 * params.t_startup
    if reliability is None:
        reliability = ReliabilityPolicy()
    if max_attempts is None:
        max_attempts = (1 << n) + 1
    diag = OnlineDiagnoser(n, known=base, probe_rtt=probe_rtt, rng=rng)

    keys_arr = np.asarray(keys, dtype=float)
    pending = list(events)
    dead: dict[int, float] = {}  # processor -> absolute death time (truth oracle)
    attempts: list[RecoveryAttempt] = []
    t_global = 0.0
    view = base
    prev_holders: list[int] | None = None
    prev_block = 0

    def truth_at(now: float):
        return lambda addr: base.is_faulty(addr) or dead.get(addr, float("inf")) <= now

    def finish(sorted_keys: np.ndarray) -> SupervisedSort:
        # Events arriving after completion: the result already stands;
        # confirm them for the record (detection latency bookkeeping).
        for ev in pending:
            when = max(ev.at, t_global)
            if ev.kind == "processor":
                subject = int(ev.subject)
                if subject in diag.known:
                    continue
                dead.setdefault(subject, ev.at)
                diag.confirm_processor(subject, truth_at(when),
                                       suspected_at=when, occurred_at=ev.at)
            else:
                a, b = ev.subject
                if (min(a, b), max(a, b)) in diag.known_links:
                    continue
                diag.confirm_link(a, b, suspected_at=when, occurred_at=ev.at,
                                  confirmed_at=when + probe_rtt)
        report = SupervisedSort(
            sorted_keys=sorted_keys,
            backend=backend,
            attempts=tuple(attempts),
            detections=tuple(diag.log),
            final_faults=view,
            total_time=t_global,
        )
        tracer = obs
        if tracer is not None and tracer.enabled:
            m = tracer.metrics
            m.inc("robust.recoveries", report.recoveries)
            m.set_gauge("robust.wasted_time", report.wasted_time)
            m.set_gauge("robust.recovery_overhead", report.recovery_overhead)
            m.set_gauge("robust.total_time", report.total_time)
            for rec in diag.log:
                if rec.latency is not None:
                    m.observe("robust.detect_latency", rec.latency)
        return report

    def absorb_abort(
        detection: DetectionRecord,
        holders: list[int],
        block_size: int,
        wasted: float,
        redistribution: float,
    ) -> None:
        """Shared post-abort bookkeeping: rescue, record, advance time."""
        nonlocal t_global, view, prev_holders, prev_block
        rescue = 0.0
        new_holders = list(holders)
        if detection.kind == "processor" and detection.subject in holders:
            rescuer, rescue = _rescue_block(
                n, view, int(detection.subject), holders, block_size, params
            )
            new_holders = [rescuer if p == detection.subject else p for p in holders]
        attempts.append(RecoveryAttempt(
            processors=view.processors,
            links=tuple((a, a | (1 << d)) for a, d in view.links),
            completed=False,
            elapsed=wasted,
            redistribution_time=redistribution,
            rescue_time=rescue,
            detection=detection,
        ))
        t_global += wasted + rescue
        view = diag.fault_view(base)
        prev_holders = new_holders
        prev_block = block_size

    while True:
        if len(attempts) >= max_attempts:
            raise RuntimeError(
                f"supervisor exceeded {max_attempts} attempts without completing"
            )

        if backend == "phase":
            result = fault_tolerant_sort(keys_arr, n, view, params=params, obs=obs)
            redistribution = 0.0
            if prev_holders is not None:
                redistribution = _redistribution_time(
                    n, view, prev_holders, result.output_order, prev_block, params
                )
                t_global += redistribution
            # Earliest pending event striking inside this attempt.  Events
            # whose subject the plan already avoids are confirmed as known
            # and dropped without an abort.
            strike = None
            for ev in list(pending):
                subject_known = (
                    view.is_faulty(int(ev.subject))
                    if ev.kind == "processor"
                    else view.is_link_faulty(*ev.subject)
                )
                if subject_known:
                    pending.remove(ev)
                    if ev.kind == "processor":
                        dead.setdefault(int(ev.subject), ev.at)
                    continue
                if ev.at - t_global < result.elapsed:
                    strike = ev
                    break
            if strike is None:
                attempts.append(RecoveryAttempt(
                    processors=view.processors,
                    links=tuple((a, a | (1 << d)) for a, d in view.links),
                    completed=True,
                    elapsed=result.elapsed,
                    redistribution_time=redistribution,
                ))
                t_global += result.elapsed
                return finish(result.sorted_keys)
            pending.remove(strike)
            local = max(strike.at - t_global, 0.0)
            _, wasted = result.machine.cut_at(local)
            barrier = t_global + wasted
            if strike.kind == "processor":
                subject = int(strike.subject)
                dead[subject] = strike.at
                record = diag.confirm_processor(
                    subject, truth_at(barrier),
                    suspected_at=barrier, occurred_at=strike.at,
                )
                if not record.faulty:  # pragma: no cover - defensive
                    raise RuntimeError(f"diagnoser cleared a true fault: {record}")
            else:
                a, b = strike.subject
                record = diag.confirm_link(
                    a, b, suspected_at=barrier, occurred_at=strike.at,
                    confirmed_at=barrier + probe_rtt,
                )
            absorb_abort(
                record,
                list(result.output_order),
                result.block_size,
                wasted + (record.confirmed_at - barrier),
                redistribution,
            )
            continue

        # -- spmd backend ----------------------------------------------------
        _, schedule = _schedule_for(n, view)
        block_size = pad_and_chunk(keys_arr, schedule.workers)[1] if schedule.workers else 0
        redistribution = 0.0
        if prev_holders is not None:
            redistribution = _redistribution_time(
                n, view, prev_holders, schedule.output_order, prev_block, params
            )
            t_global += redistribution
        offset = t_global

        def before_run(machine: SpmdMachine) -> None:
            for ev in pending:
                local = max(ev.at - offset, 0.0)
                if ev.kind == "processor":
                    if not machine.faults.is_faulty(int(ev.subject)):
                        machine.schedule_processor_fault(int(ev.subject), local)
                else:
                    a, b = ev.subject
                    if not machine.faults.is_link_faulty(a, b):
                        machine.schedule_link_fault(a, b, local)

        session = sort_session(
            keys_arr, n, view, params=params, obs=obs,
            machine_opts=dict(
                diagnoser=diag,
                detect_timeout=detect_timeout,
                reliable=reliability,
            ),
            before_run=before_run,
            allow_abort=True,
        )
        machine = session.machine
        for rank, local_t in machine.dead_at.items():
            dead.setdefault(rank, offset + local_t)
        if not machine.aborted:
            attempts.append(RecoveryAttempt(
                processors=view.processors,
                links=tuple((a, a | (1 << d)) for a, d in view.links),
                completed=True,
                elapsed=session.total_time,
                redistribution_time=redistribution,
            ))
            t_global += session.total_time
            # Drop events consumed during the run (confirmed links absorbed
            # by rerouting; processor deaths that never blocked anyone are
            # handled post-completion in finish()).
            pending = [
                ev for ev in pending
                if not (ev.kind == "link"
                        and (min(*ev.subject), max(*ev.subject)) in diag.known_links)
            ]
            return finish(session.sorted_keys)
        record = machine.abort_record
        pending = [
            ev for ev in pending
            if not (
                (ev.kind == "processor" and int(ev.subject) in diag.known)
                or (ev.kind == "link"
                    and (min(*ev.subject), max(*ev.subject)) in diag.known_links)
            )
        ]
        absorb_abort(
            record,
            list(schedule.output_order),
            block_size,
            record.confirmed_at,
            redistribution,
        )
