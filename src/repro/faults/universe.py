"""Pluggable fault universes: what can go wrong, and how to judge survival.

The chaos harness of PR 2 knows one universe — permanent processor/link
faults that arrive before or during the run and are planned or recovered
around, judged by exact ``np.sort`` equality.  This module generalizes it
into a registry of :class:`FaultClass` implementations, each bundling

* **an injection model** (what misbehaves, parameterized and seeded),
* **a tolerance-aware oracle** (what "survived" means for that model —
  exactness is the *wrong* oracle under persistent comparator lies), and
* **a recovery/verification path** (re-planning, diagnosis, or host-side
  checksum validation).

Registered classes (see docs/ROBUSTNESS.md §6 for the full taxonomy):

``baseline``
    The PR-2 universe: static + mid-run permanent faults through the
    recovery supervisor, exact differential oracle.
``comparison``
    :class:`ComparisonFaults` — persistent random comparator lies with
    rate ``p`` (Geissmann et al.), injected identically into the
    ``loop``/``compiled`` kernels and the SPMD probe; judged by
    the max-dislocation / unordered-pairs oracle of
    :mod:`repro.faults.oracles` against :func:`comparison_tolerance`.
``memory``
    :class:`MemoryFaults` — silent cell corruption with rate ``alpha`` at
    block load (just before the local heapsort); the sort must remain
    exact *as a sort* (zero inversions) with a multiset delta bounded by
    the injected corruption.
``hybrid``
    :class:`HybridDiagnosis` — mixed crash+byzantine processor faults
    diagnosed from combined PMC and MM* syndromes
    (:func:`repro.faults.diagnosis.diagnose_hybrid`), then sorted around;
    survival requires exact identification *and* an exact sort.
``abft``
    :class:`AbftChecksum` — algorithm-based fault tolerance: per-block
    key checksums (count / sum / sum-of-squares) carried through every
    merge-split and validated host-side; survival means corruption is
    detected exactly when the key multiset actually changed.

The module deliberately imports only the fault-layer neighbours at module
scope; the execution engines (``repro.core``) and the chaos campaign's
outcome type are imported lazily inside :meth:`FaultClass.run`, keeping
``repro.faults`` import-light for the kernels that consult the injectors.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.faults.injectors import (
    ComparisonInjector,
    MemoryInjector,
    comparison_faults,
    memory_faults,
)
from repro.faults.oracles import (
    abft_checksums,
    block_checksums,
    comparison_tolerance,
    max_dislocation,
    multiset_delta,
    unordered_pairs,
)

__all__ = [
    "AbftChecksum",
    "BaselineFaults",
    "ComparisonFaults",
    "FaultClass",
    "HybridDiagnosis",
    "MemoryFaults",
    "fault_class_names",
    "fault_class_summaries",
    "get_fault_class",
    "register_fault_class",
]


def _scenario_keys(scenario) -> np.ndarray:
    """Regenerate a scenario's keys (the wire/report never carries them)."""
    rng = np.random.default_rng(scenario.seed)
    return rng.integers(0, 10**6, scenario.keys).astype(float)


def _static_faults(scenario):
    from repro.faults.model import FaultKind, FaultSet

    return FaultSet(
        scenario.n, scenario.static_processors,
        kind=FaultKind.PARTIAL, links=scenario.static_links,
    )


def _execute_sort(scenario, keys, static, params):
    """Run the planned sort on the scenario's backend.

    Returns ``(sorted_keys, final_blocks, total_time)``; the blocks are
    what the ABFT universe computes its carried checksums from.
    """
    if scenario.backend == "spmd":
        from repro.core.spmd_sort import spmd_fault_tolerant_sort

        res = spmd_fault_tolerant_sort(keys, scenario.n, static, params=params)
        return res.sorted_keys, dict(res.blocks), float(res.finish_time)
    from repro.core.ftsort import fault_tolerant_sort

    res = fault_tolerant_sort(keys, scenario.n, static, params=params)
    return res.sorted_keys, dict(res.machine.blocks), float(res.elapsed)


class FaultClass(abc.ABC):
    """One pluggable fault universe (injection model + oracle + recovery).

    Class attributes:
        name: registry key (what ``repro chaos --fault-class`` accepts).
        summary: one-line description for ``--help`` and docs.
        oracle: label of the survival oracle (reported per outcome).
        curve_param: name of the severity parameter the survival curve is
            plotted against (``None`` for the baseline).
        strata: default severity strata the stratified generator cycles.
        needs_static: whether scenarios must carry at least one static
            processor fault (the diagnosis universe is vacuous without).
    """

    name: str = ""
    summary: str = ""
    oracle: str = "exact-np.sort"
    curve_param: str | None = None
    strata: tuple[float, ...] = ()
    needs_static: bool = False

    def draw_params(self, rng: np.random.Generator, variant: int):
        """Severity parameters for scenario ``variant`` of this class.

        Deterministic stratification: ``variant`` (the scenario's index
        within this class/backend slice) cycles :attr:`strata`, so even
        short campaigns cover every stratum of every class.  ``rng`` is
        available to subclasses needing auxiliary draws.
        """
        if self.curve_param is None or not self.strata:
            return ()
        value = self.strata[variant % len(self.strata)]
        return ((self.curve_param, float(value)),)

    @abc.abstractmethod
    def run(self, scenario, params=None, reliability=None):
        """Execute ``scenario`` under this universe; return a ChaosOutcome."""

    # -- shared outcome plumbing ------------------------------------------

    def _failure(self, scenario, exc: BaseException):
        from repro.chaos.campaign import ChaosOutcome

        return ChaosOutcome(
            scenario=scenario, sorted_correct=False, recovered=False,
            error=f"{type(exc).__name__}: {exc}",
            oracle={"kind": self.oracle},
        )


class BaselineFaults(FaultClass):
    """PR-2 semantics: permanent fault arrivals under the supervisor."""

    name = "baseline"
    summary = ("permanent processor/link faults (static + mid-run) through "
               "the recovery supervisor; exact np.sort oracle")
    oracle = "exact-np.sort"

    def run(self, scenario, params=None, reliability=None):
        from repro.chaos.campaign import run_baseline_scenario

        return run_baseline_scenario(
            scenario, params=params, reliability=reliability
        )


class ComparisonFaults(FaultClass):
    """Persistent random comparator lies with rate ``p`` (Geissmann et al.).

    Every inter-processor comparison — probe skip decisions and the
    pairwise duels of the exchange-split, in all three kernel backends
    and the SPMD message engine — consults one seeded
    :class:`~repro.faults.injectors.ComparisonInjector`; the same
    unordered key pair always lies the same way.  Local heapsorts and
    run merges stay truthful (the model faults the comparator *modules
    between* processors, not the processors' own ALUs).  Survival is the
    tolerance-aware dislocation oracle, never exact equality.
    """

    name = "comparison"
    summary = ("persistent comparator lies with probability p on every "
               "inter-processor comparison; max-dislocation oracle")
    oracle = "max-dislocation"
    curve_param = "p"
    strata = (0.0005, 0.002, 0.008)

    def __init__(self, p: float | None = None, seed: int | None = None):
        self.default_p = self.strata[0] if p is None else float(p)
        self.default_seed = seed

    def run(self, scenario, params=None, reliability=None):
        from repro.chaos.campaign import ChaosOutcome

        opts = dict(scenario.fault_params)
        p = float(opts.get("p", self.default_p))
        seed = scenario.seed if self.default_seed is None else self.default_seed
        keys = _scenario_keys(scenario)
        static = _static_faults(scenario)
        injector = ComparisonInjector(p, seed=seed)
        try:
            with comparison_faults(injector):
                out, blocks, total = _execute_sort(scenario, keys, static, params)
        except Exception as exc:
            return self._failure(scenario, exc)
        expected = np.sort(keys)
        multiset_ok = multiset_delta(out, expected) == 0
        dislocation = max_dislocation(out)
        inversions = unordered_pairs(out)
        block = max((int(b.size) for b in blocks.values()), default=1)
        tol_d, tol_u = comparison_tolerance(p, int(keys.size), block)
        verdict = multiset_ok and dislocation <= tol_d and inversions <= tol_u
        return ChaosOutcome(
            scenario=scenario, sorted_correct=verdict, recovered=True,
            total_time=total,
            oracle={
                "kind": self.oracle,
                "p": p,
                "max_dislocation": dislocation,
                "unordered_pairs": inversions,
                "tolerance_dislocation": tol_d,
                "tolerance_pairs": tol_u,
                "multiset_ok": bool(multiset_ok),
                "lies_fired": injector.fired,
                "lies_probe": injector.fired_probe,
                "comparisons": injector.evaluated,
            },
        )


class MemoryFaults(FaultClass):
    """Silent memory-cell corruption with rate ``alpha`` at block load.

    Cells are overwritten just before the local heapsort of paper step 3
    (the :func:`repro.core.blocks.pad_and_chunk` chokepoint, shared by
    the phase, SPMD, and compiled engines); everything downstream is
    truthful, so the run must still produce a perfectly *sorted* array —
    of the corrupted multiset.  Survival: zero inversions, and a multiset
    delta against the input of at most two per corrupted cell.
    """

    name = "memory"
    summary = ("silent cell corruption with probability alpha at block "
               "load (before the local heapsort); bounded-multiset oracle")
    oracle = "bounded-multiset"
    curve_param = "alpha"
    strata = (0.002, 0.01, 0.05)

    def __init__(self, alpha: float | None = None):
        self.default_alpha = self.strata[0] if alpha is None else float(alpha)

    def run(self, scenario, params=None, reliability=None):
        from repro.chaos.campaign import ChaosOutcome

        opts = dict(scenario.fault_params)
        alpha = float(opts.get("alpha", self.default_alpha))
        keys = _scenario_keys(scenario)
        static = _static_faults(scenario)
        injector = MemoryInjector(alpha, seed=scenario.seed)
        try:
            with memory_faults(injector):
                out, _, total = _execute_sort(scenario, keys, static, params)
        except Exception as exc:
            return self._failure(scenario, exc)
        inversions = unordered_pairs(out)
        delta = multiset_delta(out, keys)
        verdict = (
            inversions == 0
            and delta <= 2 * injector.corrupted
            and (injector.corrupted > 0 or bool(np.array_equal(out, np.sort(keys))))
        )
        return ChaosOutcome(
            scenario=scenario, sorted_correct=verdict, recovered=True,
            total_time=total,
            oracle={
                "kind": self.oracle,
                "alpha": alpha,
                "corrupted": injector.corrupted,
                "multiset_delta": delta,
                "unordered_pairs": inversions,
            },
        )


class HybridDiagnosis(FaultClass):
    """Mixed crash+byzantine faults, diagnosed from PMC + MM* syndromes.

    The scenario's static faults are split into silent (crash) and
    byzantine processors by the ``byz_frac`` parameter; the combined
    syndromes are decoded with
    :func:`repro.faults.diagnosis.diagnose_hybrid`, and the sort is
    planned around the *identified* set.  Survival requires the
    diagnosis to match the ground truth exactly and the sort to be
    exactly correct — the paper's "fault locations are known" assumption,
    earned rather than assumed.
    """

    name = "hybrid"
    summary = ("mixed crash+byzantine processor faults diagnosed from "
               "combined PMC and MM* test syndromes, then sorted around")
    oracle = "exact-diagnosis"
    curve_param = "byz_frac"
    strata = (0.0, 0.5, 1.0)
    needs_static = True

    def run(self, scenario, params=None, reliability=None):
        from repro.chaos.campaign import ChaosOutcome
        from repro.faults.diagnosis import diagnose_hybrid, hybrid_syndromes
        from repro.faults.model import FaultKind, FaultSet

        opts = dict(scenario.fault_params)
        frac = float(opts.get("byz_frac", 0.5))
        statics = tuple(scenario.static_processors)
        n_byz = int(round(frac * len(statics)))
        byz, crash = statics[:n_byz], statics[n_byz:]
        truth = FaultSet(
            scenario.n, crash, kind=FaultKind.PARTIAL, byzantine=byz,
        )
        rng = np.random.default_rng((scenario.seed, scenario.scenario_id, 0x4D))
        keys = _scenario_keys(scenario)
        try:
            pmc, mm = hybrid_syndromes(truth, rng)
            result = diagnose_hybrid(scenario.n, pmc, mm)
            diag_ok = (
                result.consistent and result.identified == truth.processors
            )
            planned = FaultSet(
                scenario.n, result.identified, kind=FaultKind.PARTIAL
            )
            out, _, total = _execute_sort(scenario, keys, planned, params)
        except Exception as exc:
            return self._failure(scenario, exc)
        exact = bool(np.array_equal(out, np.sort(keys)))
        return ChaosOutcome(
            scenario=scenario, sorted_correct=diag_ok and exact,
            recovered=True, total_time=total,
            oracle={
                "kind": self.oracle,
                "byz_frac": frac,
                "crash": len(crash),
                "byzantine": len(byz),
                "identified": list(result.identified),
                "diagnosis_ok": bool(diag_ok),
                "sort_exact": exact,
                "pmc_tests": len(pmc),
                "mm_tests": len(mm),
            },
        )


class AbftChecksum(FaultClass):
    """ABFT output verification via carried key checksums.

    The host records the input checksum (count / sum / sum-of-squares,
    exact in float64 for the campaign's integral key domain), lets the
    sort run under silent corruption with rate ``gamma``, then validates
    two things after collection: (a) the per-block checksums of the final
    blocks — carried through every merge-split, which conserves each
    pair's combined checksum — sum to the collected output's checksum,
    and (b) the output checksum differs from the input's exactly when the
    key multiset was actually altered.  Survival is detection
    correctness: no misses, no false alarms.
    """

    name = "abft"
    summary = ("checksum-based output verification (ABFT): per-block "
               "count/sum/sum-of-squares carried through merge-split and "
               "validated host-side; detection-correctness oracle")
    oracle = "abft-detection"
    curve_param = "gamma"
    strata = (0.0, 0.01, 0.05)

    def run(self, scenario, params=None, reliability=None):
        from repro.chaos.campaign import ChaosOutcome

        opts = dict(scenario.fault_params)
        gamma = float(opts.get("gamma", 0.01))
        keys = _scenario_keys(scenario)
        static = _static_faults(scenario)
        injector = MemoryInjector(gamma, seed=scenario.seed + 1)
        input_ck = abft_checksums(keys)
        try:
            with memory_faults(injector):
                out, blocks, total = _execute_sort(scenario, keys, static, params)
        except Exception as exc:
            return self._failure(scenario, exc)
        per_block = block_checksums(blocks)
        carried = (
            sum(ck[0] for ck in per_block.values()),
            float(sum(ck[1] for ck in per_block.values())),
            float(sum(ck[2] for ck in per_block.values())),
        )
        output_ck = abft_checksums(out)
        carried_ok = carried == output_ck
        detected = output_ck != input_ck
        altered = multiset_delta(out, keys) > 0
        verdict = carried_ok and (detected == altered) and unordered_pairs(out) == 0
        return ChaosOutcome(
            scenario=scenario, sorted_correct=verdict, recovered=True,
            total_time=total,
            oracle={
                "kind": self.oracle,
                "gamma": gamma,
                "corrupted": injector.corrupted,
                "detected": bool(detected),
                "multiset_altered": bool(altered),
                "carried_blocks_ok": bool(carried_ok),
                "input_checksum": list(input_ck),
                "output_checksum": list(output_ck),
            },
        )


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, FaultClass] = {}


def register_fault_class(instance: FaultClass, replace: bool = False) -> FaultClass:
    """Register a fault class under its ``name`` (insertion order kept)."""
    if not instance.name:
        raise ValueError("fault class needs a non-empty name")
    if instance.name in _REGISTRY and not replace:
        raise ValueError(f"fault class {instance.name!r} already registered")
    _REGISTRY[instance.name] = instance
    return instance


def get_fault_class(name: str) -> FaultClass:
    """Look up a registered fault class.

    Raises:
        ValueError: naming every registered class, for friendly CLI errors.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fault class {name!r} "
            f"(registered classes: {', '.join(_REGISTRY)})"
        ) from None


def fault_class_names() -> tuple[str, ...]:
    """Registered class names, in registration order."""
    return tuple(_REGISTRY)


def fault_class_summaries() -> dict[str, str]:
    """Name -> one-line summary, for ``--help`` and docs."""
    return {name: cls.summary for name, cls in _REGISTRY.items()}


register_fault_class(BaselineFaults())
register_fault_class(ComparisonFaults())
register_fault_class(MemoryFaults())
register_fault_class(HybridDiagnosis())
register_fault_class(AbftChecksum())
