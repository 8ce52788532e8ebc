"""Reproduce the whole evaluation with one command.

``repro-all --out results/`` (or ``python -m repro.experiments.runner``)
regenerates every artifact — Table 1, Table 2, all four Figure-7 panels
(text + SVG), the model check, and the reliability comparison — into an
output directory, with a MANIFEST.txt recording what was produced, the
seeds, and the trial counts.  Reduced scales are available via ``--quick``
for CI-style smoke runs, and ``--jobs`` fans the independent artifacts out
over worker processes (each artifact's seed is fixed by the top-level seed
alone, so the outputs are identical to a serial run).
"""

from __future__ import annotations

import argparse
import os
import time

from repro.experiments.figure7 import (
    compute_figure7,
    default_m_values,
    render_figure7,
    render_figure7_svg,
)
from repro.experiments.modelcheck import compute_modelcheck, render_modelcheck
from repro.experiments.report import to_csv
from repro.experiments.table1 import compute_table1, render_table1
from repro.experiments.table2 import compute_table2, render_table2
from repro.experiments.svgplot import save_chart
from repro.parallel import run_tasks

__all__ = ["run_all", "main"]


def _table1_csv(cells) -> str:
    max_m = max((max(c.percent_by_mincut, default=0) for c in cells), default=0)
    headers = ["n", "r", *[f"pct_m{m}" for m in range(max_m + 1)]]
    rows = [[c.n, c.r, *[c.percent(m) for m in range(max_m + 1)]] for c in cells]
    return to_csv(headers, rows)


def _table2_csv(cells) -> str:
    headers = ["n", "r", "proposed_best", "proposed_worst",
               "baseline_best", "baseline_worst"]
    rows = [[c.n, c.r, c.proposed_best, c.proposed_worst,
             c.baseline_best, c.baseline_worst] for c in cells]
    return to_csv(headers, rows)


def _figure7_csv(panel) -> str:
    headers = ["M", *panel.series.keys()]
    rows = [
        [m, *(panel.series[name][idx] for name in panel.series)]
        for idx, m in enumerate(panel.m_values)
    ]
    return to_csv(headers, rows)


def _write(out_dir: str, name: str, content: str, manifest: list[str]) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content if content.endswith("\n") else content + "\n")
    manifest.append(name)


# Artifact task order fixes the MANIFEST order; each task is independent
# and carries its own seed offset, so any subset can run in any process.
_FIGURE7_PANELS = {"a": 6, "b": 5, "c": 3, "d": 4}
_TASK_NAMES = ("table1", "table2", "figure7a", "figure7b", "figure7c",
               "figure7d", "modelcheck", "sensitivity", "diagrams")


def _artifact_task(task: tuple) -> list[tuple[str, str, str]]:
    """Produce one artifact group: ``(filename, content, kind)`` triples.

    ``kind`` is ``"text"`` (newline-normalized) or ``"svg"`` (verbatim).
    Module-level and returning plain strings so it can run in a worker
    process; the parent writes the files in manifest order.
    """
    name, quick, seed = task
    if name == "table1":
        trials = 1000 if quick else 10_000
        cells = compute_table1(trials=trials, seed=seed, method="vectorized")
        return [("table1.txt", render_table1(cells), "text"),
                ("table1.csv", _table1_csv(cells), "text")]
    if name == "table2":
        t2_trials = 500 if quick else 10_000
        cells = compute_table2(trials=t2_trials, seed=seed + 1)
        return [("table2.txt", render_table2(cells), "text"),
                ("table2.csv", _table2_csv(cells), "text")]
    if name.startswith("figure7"):
        panel_name = name[len("figure7"):]
        n = _FIGURE7_PANELS[panel_name]
        points = 3 if quick else 5
        placements = 2 if quick else 5
        panel = compute_figure7(
            n,
            m_values=default_m_values(n, points),
            placements=placements,
            seed=seed + 7,
        )
        return [(f"figure7{panel_name}.txt", render_figure7(panel), "text"),
                (f"figure7{panel_name}.csv", _figure7_csv(panel), "text"),
                (f"figure7{panel_name}.svg", render_figure7_svg(panel), "svg")]
    if name == "modelcheck":
        mc = compute_modelcheck(
            ns=(4, 5) if quick else (4, 5, 6),
            keys_per_proc=200 if quick else 1000,
            placements=2 if quick else 5,
            seed=seed + 3,
        )
        return [("modelcheck.txt", render_modelcheck(mc), "text")]
    if name == "sensitivity":
        from repro.experiments.workloads import (
            compute_data_sensitivity,
            render_data_sensitivity,
        )

        sens = compute_data_sensitivity(
            m_keys=24 * (200 if quick else 1000), seed=seed + 4
        )
        return [("data_sensitivity.txt", render_data_sensitivity(sens), "text")]
    if name == "diagrams":
        # Structural diagrams (the paper's Figures 3 and 5).
        from repro.experiments.cubeviz import partition_diagram

        return [
            ("figure3_partition_q4.svg",
             partition_diagram(4, [0, 6, 9],
                               title="Figure 3 — Q_4 partitioned, faults {0, 6, 9}"),
             "svg"),
            ("figure5_partition_q5.svg",
             partition_diagram(5, [3, 5, 16, 24],
                               title="Figure 5 — Q_5 under D_beta = (0,1,3), Example 1"),
             "svg"),
        ]
    raise ValueError(f"unknown artifact task {name!r}")


def run_all(out_dir: str, quick: bool = False, seed: int = 1992,
            jobs: int = 1) -> list[str]:
    """Regenerate every artifact into ``out_dir``; returns the manifest.

    ``jobs > 1`` computes the artifact groups in parallel workers; files
    are still written by the parent, in the fixed manifest order, with
    contents identical to a serial run.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest: list[str] = []
    t0 = time.perf_counter()

    results = run_tasks(
        _artifact_task, [(name, quick, seed) for name in _TASK_NAMES],
        jobs=jobs,
    )
    for files in results:
        for fname, content, kind in files:
            if kind == "svg":
                save_chart(os.path.join(out_dir, fname), content)
                manifest.append(fname)
            else:
                _write(out_dir, fname, content, manifest)

    trials = 1000 if quick else 10_000
    t2_trials = 500 if quick else 10_000
    points = 3 if quick else 5
    placements = 2 if quick else 5
    elapsed = time.perf_counter() - t0
    from repro.plancache import PLAN_CACHE

    # Deterministic across jobs counts (hit/miss totals are per-process and
    # would differ between serial and fanned-out runs).
    cache_state = "enabled" if PLAN_CACHE.enabled else "disabled"
    lines = [
        "repro — full evaluation manifest",
        f"seed: {seed}   quick: {quick}   jobs: {jobs}   wall-clock: {elapsed:.1f}s",
        f"table trials: {trials} (table1, vectorized), {t2_trials} (table2)",
        f"figure7: {points} key counts x {placements} placements per r",
        f"plan cache: {cache_state}",
        "",
        *manifest,
    ]
    _write(out_dir, "MANIFEST.txt", "\n".join(lines), manifest[:0])
    return manifest


def main(argv: list[str] | None = None) -> int:
    """CLI: ``repro-all --out results [--quick] [--jobs J]``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=str, default="results")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--jobs", type=str, default=None,
                        help="workers: N, 'auto'/0 = all usable CPUs "
                             "(default: $REPRO_JOBS, else 1)")
    parser.add_argument("--plan-cache", choices=("on", "off"), default="on",
                        help="disable the memoizing planning layer with 'off'")
    args = parser.parse_args(argv)
    from repro.parallel import jobs_from_env, resolve_jobs

    if args.plan_cache == "off":
        from repro.plancache import PLAN_CACHE

        PLAN_CACHE.configure(enabled=False)

    jobs = resolve_jobs(args.jobs) if args.jobs is not None else jobs_from_env(1)
    manifest = run_all(args.out, quick=args.quick, seed=args.seed, jobs=jobs)
    print(f"wrote {len(manifest)} artifacts to {args.out}/ (see MANIFEST.txt)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
