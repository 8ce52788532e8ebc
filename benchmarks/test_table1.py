"""Benchmark + regenerator for Table 1 (mincut distribution).

``pytest benchmarks/test_table1.py --benchmark-only -s`` prints the
paper-style table (reduced trial count; the CLI regenerator
``repro-table1`` runs the full 10000 trials per cell) and records the
distribution in ``BENCH_table1.json`` at the repo root.
"""

from __future__ import annotations

from repro.core.partition import find_min_cuts
from repro.experiments.table1 import compute_table1, render_table1
from repro.faults.inject import random_faulty_processors


def test_partition_algorithm_q6_r5(benchmark, rng, bench_json):
    """Cost of one partition-algorithm run at the paper's largest cell."""
    faults = random_faulty_processors(6, 5, rng)
    result = benchmark(find_min_cuts, 6, faults)
    assert result.mincut <= 4
    if benchmark.stats is not None:  # None under --benchmark-disable
        bench_json("table1", "partition_q6_r5", {
            "wall_mean_s": float(benchmark.stats.stats.mean),
        })


def test_table1_monte_carlo_cell(benchmark, rng, fast_mode):
    """Cost of one (n=6, r=5) Monte-Carlo cell at 100 trials."""
    trials = 30 if fast_mode else 100

    def cell():
        counts: dict[int, int] = {}
        for _ in range(trials):
            faults = random_faulty_processors(6, 5, rng)
            m = find_min_cuts(6, faults).mincut
            counts[m] = counts.get(m, 0) + 1
        return counts

    counts = benchmark.pedantic(cell, rounds=1, iterations=1)
    assert sum(counts.values()) == trials


def test_table1_rows(benchmark, fast_mode, bench_json):
    """Regenerate Table 1 (reduced trials) and print the rows."""
    trials = 100 if fast_mode else 300
    cells = benchmark.pedantic(
        lambda: compute_table1(trials=trials, seed=19920401), rounds=1, iterations=1
    )
    print()
    print(render_table1(cells))
    bench_json("table1", "rows", {
        "trials": trials,
        "cells": [
            {"n": c.n, "r": c.r,
             "percent_by_mincut": {str(m): p for m, p in sorted(c.percent_by_mincut.items())}}
            for c in cells
        ],
    })
    # Paper shape assertions: n=6, r=5 concentrates on m=3.
    cell = next(c for c in cells if (c.n, c.r) == (6, 5))
    assert cell.percent(3) > 85.0
    assert cell.percent(3) + cell.percent(4) == 100.0
