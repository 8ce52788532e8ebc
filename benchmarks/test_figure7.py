"""Benchmark + regenerator for Figure 7(a)-(d) (execution time vs keys).

``pytest benchmarks/test_figure7.py --benchmark-only -s`` prints each
panel's series (reduced sweep; ``repro-figure7 --n 6`` runs the full one)
and asserts the paper's qualitative claims about who beats whom.  Each
panel's series also lands in ``BENCH_figure7.json`` at the repo root
(via the ``bench_json`` fixture) for machine consumption.
"""

from __future__ import annotations

import pytest

from repro.core.ftsort import fault_tolerant_sort
from repro.experiments.figure7 import compute_figure7, render_figure7


def _last(panel, label):
    return panel.series[label][-1]


@pytest.mark.parametrize(
    "n,claims",
    [
        # (panel dimension, [(ft label, baseline label), ...]) — each ft
        # curve must finish below its baseline at the largest M, exactly
        # the textual claims of Section 4.
        (6, [("ft r=1", "fault-free Q_5"), ("ft r=2", "fault-free Q_5"),
             ("ft r=3", "fault-free Q_4"), ("ft r=4", "fault-free Q_4"),
             ("ft r=5", "fault-free Q_4")]),
        (5, [("ft r=1", "fault-free Q_4"), ("ft r=2", "fault-free Q_4"),
             ("ft r=3", "fault-free Q_3"), ("ft r=4", "fault-free Q_3")]),
        (4, [("ft r=1", "fault-free Q_3"), ("ft r=2", "fault-free Q_3"),
             ("ft r=3", "fault-free Q_2")]),
        (3, [("ft r=1", "fault-free Q_2"), ("ft r=2", "fault-free Q_1")]),
    ],
    ids=["panel-a-Q6", "panel-b-Q5", "panel-d-Q4", "panel-c-Q3"],
)
def test_figure7_panel(benchmark, n, claims, ncube7, fast_mode, bench_json):
    per_proc = (50, 1000) if fast_mode else (50, 1000, 5000)
    m_values = tuple(p * (1 << n) for p in per_proc)
    panel = benchmark.pedantic(
        lambda: compute_figure7(
            n, m_values=m_values, placements=2 if fast_mode else 3,
            params=ncube7, seed=19920407
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_figure7(panel))
    bench_json("figure7", f"panel_n{n}", {
        "m_values": list(m_values),
        "series": {label: list(values) for label, values in panel.series.items()},
    })
    for ft_label, base_label in claims:
        assert _last(panel, ft_label) < _last(panel, base_label), (
            f"{ft_label} should beat {base_label} at M={m_values[-1]}"
        )


def test_ft_sort_q6_r5_large(benchmark, rng, ncube7, fast_mode, bench_json):
    """Wall-clock of one large simulated sort (harness overhead check)."""
    keys = rng.random(64 * (200 if fast_mode else 1000))
    faults = [7, 8, 31, 37, 49]
    result = benchmark(fault_tolerant_sort, keys, 6, faults, ncube7)
    assert result.elapsed > 0
    record = {"keys": int(keys.size), "simulated_elapsed_us": float(result.elapsed)}
    if benchmark.stats is not None:  # None under --benchmark-disable
        record["wall_mean_s"] = float(benchmark.stats.stats.mean)
    bench_json("figure7", "q6_r5_large", record)
