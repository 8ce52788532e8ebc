"""Campaign runner: execute scenarios, differentially check, report.

Every scenario runs through the fault class it names (see
:mod:`repro.faults.universe`).  The ``baseline`` class is the original
harness — :func:`repro.host.supervised_sort` with a fresh
:class:`repro.obs.Tracer` attached, checked against the exact ``np.sort``
oracle; the pluggable classes (``comparison``, ``memory``, ``hybrid``,
``abft``) inject their own fault models and judge survival with
tolerance-aware oracles.  The campaign emits one JSON line per scenario
(schema in docs/ROBUSTNESS.md) carrying the scenario itself (so any line
replays standalone), the verdict, the per-class oracle metrics, and the
robustness telemetry: detection latencies, retry/timeout counts, and
recovery overhead.  Any failure is shrunk to a minimal reproducer before
the summary is built, and the summary reports a per-fault-class survival
curve over each class's severity parameter.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.chaos.schedule import ChaosScenario, random_scenario
from repro.faults.model import FaultKind, FaultSet
from repro.faults.universe import get_fault_class
from repro.host.session import FaultEvent, supervised_sort
from repro.core.ftsort import fault_tolerant_sort
from repro.obs import Tracer
from repro.parallel import run_tasks
from repro.plancache.cache import PLAN_CACHE
from repro.simulator.params import MachineParams
from repro.simulator.spmd import ReliabilityPolicy

__all__ = [
    "CampaignSummary",
    "ChaosOutcome",
    "run_baseline_scenario",
    "run_campaign",
    "run_scenario",
]


@dataclass(frozen=True)
class ChaosOutcome:
    """Verdict and telemetry of one executed scenario.

    Attributes:
        scenario: the scenario that ran.
        sorted_correct: final keys equal ``np.sort(keys)`` exactly.
        recovered: the supervisor completed without raising.
        error: exception repr when ``recovered`` is False.
        recoveries: detection-triggered re-plans.
        detect_latencies: fault arrival -> confirmation, per confirmed fault.
        retries: reliable-messaging retransmissions across the run.
        timeouts: ACK timeouts across the run.
        false_suspicions: suspicions cleared by neighbor tests.
        recovery_overhead: supervised total / completing run (>= 1).
        wasted_time: written-off attempt time.
        total_time: supervised end-to-end simulated time.
        oracle: per-fault-class oracle metrics (``kind`` names the oracle;
            the rest is class-specific — dislocation and tolerances for
            ``comparison``, corruption/detection for ``memory``/``abft``,
            the identified set for ``hybrid``).
    """

    scenario: ChaosScenario
    sorted_correct: bool
    recovered: bool
    error: str | None = None
    recoveries: int = 0
    detect_latencies: tuple[float, ...] = ()
    retries: int = 0
    timeouts: int = 0
    false_suspicions: int = 0
    recovery_overhead: float = 1.0
    wasted_time: float = 0.0
    total_time: float = 0.0
    oracle: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.recovered and self.sorted_correct

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scenario"] = self.scenario.to_dict()
        d["detect_latencies"] = list(self.detect_latencies)
        d["passed"] = self.passed
        return d


def scenario_events(
    scenario: ChaosScenario, params: MachineParams | None = None
) -> list[FaultEvent]:
    """Materialize a scenario's arrival fractions into absolute times.

    The nominal duration is the phase-engine run time over the static
    faults alone — the denominator both backends share.  It is a pure
    function of the scenario statics (the keys are regenerated from the
    seed), so it is memoized in the plan cache: the supervisor, the
    shrinker's ddmin iterations, and repeated campaign runs all re-ask for
    the same denominators.
    """
    static = FaultSet(
        scenario.n, scenario.static_processors,
        kind=FaultKind.PARTIAL, links=scenario.static_links,
    )

    def compute() -> float:
        rng = np.random.default_rng(scenario.seed)
        keys = rng.integers(0, 10**6, scenario.keys).astype(float)
        return fault_tolerant_sort(keys, scenario.n, static, params=params).elapsed

    nominal = PLAN_CACHE.memo(
        "nominal",
        (scenario.n, scenario.keys, scenario.seed, static, params,
         scenario.fault_class),
        compute,
    )
    return [
        FaultEvent(ev.kind, ev.subject, at=ev.frac * nominal)
        for ev in scenario.events
    ]


def run_scenario(
    scenario: ChaosScenario,
    params: MachineParams | None = None,
    reliability: ReliabilityPolicy | None = None,
) -> ChaosOutcome:
    """Execute one scenario under the fault class it names.

    Dispatches through the :mod:`repro.faults.universe` registry — the
    ``baseline`` class routes to :func:`run_baseline_scenario`; the
    pluggable classes inject their fault model around the planned sort and
    judge survival with their own tolerance-aware oracle.
    """
    return get_fault_class(scenario.fault_class).run(
        scenario, params=params, reliability=reliability
    )


def run_baseline_scenario(
    scenario: ChaosScenario,
    params: MachineParams | None = None,
    reliability: ReliabilityPolicy | None = None,
) -> ChaosOutcome:
    """Execute one baseline scenario; differentially check against ``np.sort``."""
    rng = np.random.default_rng(scenario.seed)
    keys = rng.integers(0, 10**6, scenario.keys).astype(float)
    static = FaultSet(
        scenario.n, scenario.static_processors,
        kind=FaultKind.PARTIAL, links=scenario.static_links,
    )
    if reliability is None:
        # Snappier than the interactive default: campaign runs are many.
        reliability = ReliabilityPolicy(timeout=8_000.0)
    tracer = Tracer()
    cache_baseline = PLAN_CACHE.stats()
    try:
        events = scenario_events(scenario, params=params)
        result = supervised_sort(
            keys, scenario.n,
            faults=static,
            events=events,
            backend=scenario.backend,
            params=params,
            obs=tracer,
            rng=scenario.seed + 1,
            reliability=reliability,
        )
    except Exception as exc:  # the campaign reports, the shrinker reproduces
        return ChaosOutcome(
            scenario=scenario, sorted_correct=False, recovered=False,
            error=f"{type(exc).__name__}: {exc}",
            oracle={"kind": "exact-np.sort"},
        )
    correct = bool(np.array_equal(result.sorted_keys, np.sort(keys)))
    metrics = tracer.metrics
    # Attribute this scenario's plan-cache traffic to its tracer.
    PLAN_CACHE.export_metrics(metrics, baseline=cache_baseline)
    latencies = tuple(
        rec.latency for rec in result.detections if rec.latency is not None
    )
    false_susp = sum(1 for rec in result.detections if not rec.faulty)
    return ChaosOutcome(
        scenario=scenario,
        sorted_correct=correct,
        recovered=True,
        recoveries=result.recoveries,
        detect_latencies=latencies,
        retries=int(metrics.value("robust.retries")),
        timeouts=int(metrics.value("robust.timeouts")),
        false_suspicions=false_susp,
        recovery_overhead=float(result.recovery_overhead),
        wasted_time=float(result.wasted_time),
        total_time=float(result.total_time),
        oracle={"kind": "exact-np.sort", "exact": correct},
    )


@dataclass
class CampaignSummary:
    """Aggregate verdict of a campaign.

    ``failures`` carries, per failing scenario, the original scenario dict,
    the error, and the shrunk minimal reproducer (when shrinking ran).
    """

    scenarios: int = 0
    passed: int = 0
    with_recovery: int = 0
    recoveries: int = 0
    retries: int = 0
    false_suspicions: int = 0
    mean_detect_latency: float = 0.0
    max_detect_latency: float = 0.0
    mean_recovery_overhead: float = 1.0
    max_recovery_overhead: float = 1.0
    backends: dict = field(default_factory=dict)
    fault_classes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.scenarios

    def to_dict(self) -> dict:
        d = asdict(self)
        d["all_passed"] = self.all_passed
        return d


def _aggregate_fault_classes(outcomes: list[ChaosOutcome]) -> dict:
    """Per-fault-class survival curves for :class:`CampaignSummary`.

    For every class that ran: scenarios/passed/pass_rate, the per-backend
    split, and a ``curve`` keyed by the class's severity parameter value
    (``"default"`` for the parameterless baseline) carrying pass rate,
    dislocation statistics (when the class's oracle reports them), mean
    detection latency, and mean recovery overhead at that severity.
    """
    per_class: dict[str, dict] = {}
    buckets: dict[tuple[str, str], list[ChaosOutcome]] = {}
    for outcome in outcomes:
        name = outcome.scenario.fault_class
        entry = per_class.setdefault(name, {
            "scenarios": 0, "passed": 0, "pass_rate": 0.0,
            "oracle": outcome.oracle.get("kind", "exact-np.sort"),
            "curve_param": get_fault_class(name).curve_param,
            "backends": {}, "curve": {},
        })
        entry["scenarios"] += 1
        entry["passed"] += int(outcome.passed)
        per = entry["backends"].setdefault(
            outcome.scenario.backend, {"scenarios": 0, "passed": 0}
        )
        per["scenarios"] += 1
        per["passed"] += int(outcome.passed)
        opts = dict(outcome.scenario.fault_params)
        param = entry["curve_param"]
        key = str(opts[param]) if param is not None and param in opts else "default"
        buckets.setdefault((name, key), []).append(outcome)
    for (name, key), group in buckets.items():
        passed = sum(1 for o in group if o.passed)
        point = {
            "scenarios": len(group),
            "passed": passed,
            "pass_rate": passed / len(group),
        }
        dislocations = [
            o.oracle["max_dislocation"] for o in group
            if "max_dislocation" in o.oracle
        ]
        if dislocations:
            point["mean_max_dislocation"] = float(np.mean(dislocations))
            point["max_max_dislocation"] = int(np.max(dislocations))
        latencies = [lat for o in group for lat in o.detect_latencies]
        if latencies:
            point["mean_detect_latency"] = float(np.mean(latencies))
        overheads = [o.recovery_overhead for o in group if o.recovered]
        if overheads:
            point["mean_recovery_overhead"] = float(np.mean(overheads))
        per_class[name]["curve"][key] = point
    for entry in per_class.values():
        if entry["scenarios"]:
            entry["pass_rate"] = entry["passed"] / entry["scenarios"]
    return per_class


def _scenario_task(task: tuple) -> tuple[int, ChaosOutcome]:
    """One worker unit: build scenario ``idx`` from the campaign seed, run it.

    Module-level (picklable) so :func:`repro.parallel.run_tasks` can ship it
    to a process pool.  The scenario is derived deterministically from
    ``(idx, seed)`` — identical whether it runs in the parent or a worker —
    and :func:`run_scenario` opens a *fresh* tracer inside the task, so
    every worker's observability state is fully isolated; the parent merges
    the returned outcomes by scenario index.
    """
    idx, seed, n_choices, backends, max_keys, fault_classes, params = task
    scenario = random_scenario(
        idx, seed, n_choices=n_choices, backends=backends, max_keys=max_keys,
        fault_classes=fault_classes,
    )
    return idx, run_scenario(scenario, params=params)


def run_campaign(
    count: int = 200,
    seed: int = 0,
    out: str | None = None,
    params: MachineParams | None = None,
    n_choices: tuple[int, ...] = (3, 4),
    backends: tuple[str, ...] = ("phase", "spmd"),
    max_keys: int = 96,
    shrink_failures: bool = True,
    progress=None,
    jobs: int = 1,
    fault_classes: tuple[str, ...] = ("baseline",),
) -> CampaignSummary:
    """Run ``count`` seeded scenarios; write a JSONL report to ``out``.

    Each report line is one :meth:`ChaosOutcome.to_dict`.  ``progress``
    (optional callable ``f(index, outcome)``) fires per scenario — in
    completion order when parallel.  Failing scenarios are shrunk to
    minimal reproducers unless ``shrink_failures`` is off.

    ``jobs > 1`` distributes scenarios over the warm process pool
    (:func:`repro.parallel.run_tasks`).  Scenario derivation is per-index
    deterministic and tracers are per-task, so the outcomes, the JSONL
    report (always in scenario order), and the summary are byte-identical
    to a serial run; only shrinking stays in the parent.  Tasks ship only
    scalars: each worker regenerates its scenario's keys itself.

    ``fault_classes`` selects the registered fault universes the stratified
    generator cycles; names are validated up front (a typo fails fast, not
    after ``count`` scenarios).
    """
    from repro.chaos.shrink import shrink_scenario

    for name in fault_classes:
        get_fault_class(name)  # validate before spending any work
    tasks = [
        (idx, seed, n_choices, backends, max_keys, tuple(fault_classes), params)
        for idx in range(count)
    ]
    wrapped = None
    if progress is not None:
        wrapped = lambda done, total, result: progress(result[0], result[1])  # noqa: E731
    indexed = run_tasks(_scenario_task, tasks, jobs=jobs, progress=wrapped)
    outcomes = [outcome for _, outcome in sorted(indexed, key=lambda pair: pair[0])]
    lines = [json.dumps(outcome.to_dict(), sort_keys=True) for outcome in outcomes]

    summary = CampaignSummary(scenarios=len(outcomes))
    latencies: list[float] = []
    overheads: list[float] = []
    for outcome in outcomes:
        backend = outcome.scenario.backend
        per = summary.backends.setdefault(backend, {"scenarios": 0, "passed": 0})
        per["scenarios"] += 1
        if outcome.passed:
            summary.passed += 1
            per["passed"] += 1
        if outcome.recoveries:
            summary.with_recovery += 1
        summary.recoveries += outcome.recoveries
        summary.retries += outcome.retries
        summary.false_suspicions += outcome.false_suspicions
        latencies.extend(outcome.detect_latencies)
        if outcome.recovered:
            overheads.append(outcome.recovery_overhead)
        if not outcome.passed:
            entry = {
                "scenario": outcome.scenario.to_dict(),
                "error": outcome.error,
                "sorted_correct": outcome.sorted_correct,
            }
            if shrink_failures:
                reduced = shrink_scenario(outcome.scenario, params=params)
                entry["minimal_reproducer"] = reduced.to_dict()
            summary.failures.append(entry)
    if latencies:
        summary.mean_detect_latency = float(np.mean(latencies))
        summary.max_detect_latency = float(np.max(latencies))
    if overheads:
        summary.mean_recovery_overhead = float(np.mean(overheads))
        summary.max_recovery_overhead = float(np.max(overheads))
    summary.fault_classes = _aggregate_fault_classes(outcomes)

    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.write(json.dumps({"summary": summary.to_dict()}, sort_keys=True) + "\n")
    return summary
