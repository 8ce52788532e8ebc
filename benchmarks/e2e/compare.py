"""Compare two sets of benchmark runs under the bounds of BENCHMARK.json.

    python benchmarks/e2e/run.py --seed 1 --out base.jsonl   # parent commit
    python benchmarks/e2e/run.py --seed 1 --out head.jsonl   # change
    ...                                    # alternate, 10 seeds or more
    python benchmarks/e2e/compare.py base.jsonl head.jsonl

The i-th base run of a workload is paired with its i-th head run; a pair
must share seed, scale and run length, or the comparison is refused.
Each workload x end-to-end metric gets one row:

* ``improved``   -- at least 10 pairs, the head wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more than
  the interquartile range of the base runs;
* ``regressed``  -- the head median is worse than the base median by more
  than the metric's bound, and the runs are steady enough to say so;
* ``unresolved`` -- the run-to-run spread of either side (interquartile
  range over median) is wider than the bound, unless every head run beats
  every base run;
* ``unchanged``  -- everything else.

Exit code: 0, or 1 when any row regressed, or 2 when the runs cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from common import load_spec, median, quartile_spread

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs[rec["workload"]].append(rec)
    return runs


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, int]:
    """The row's verdict and the number of pairs the head won."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    b_med, h_med = median(base), median(head)
    worse_by = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    spread = max(quartile_spread(base), quartile_spread(head))
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    all_worse = all(sign * (h - b) > 0 for b in base for h in head)
    base_iqr = 0.0
    if len(base) > 1:
        q1, _, q3 = statistics.quantiles(base, n=4)
        base_iqr = q3 - q1
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and worse_by < 0 and abs(h_med - b_med) > base_iqr):
        return "improved", wins
    if worse_by > bound and (spread <= bound or all_worse):
        return "regressed", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="JSONL of the parent commit's runs (run.py --out)")
    parser.add_argument("head", help="JSONL of the change's runs")
    args = parser.parse_args(argv)
    spec = load_spec()
    base_runs, head_runs = load_runs(args.base), load_runs(args.head)

    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        base, head = base_runs.get(workload, []), head_runs.get(workload, [])
        if not base and not head:
            continue
        if len(base) != len(head):
            print(f"compare: {workload}: {len(base)} base runs but {len(head)} head runs",
                  file=sys.stderr)
            return 2
        for b, h in zip(base, head):
            for key in ("seed", "scale", "seconds"):
                if b[key] != h[key]:
                    print(f"compare: {workload}: refusing to pair runs with "
                          f"{key} {b[key]} and {h[key]}", file=sys.stderr)
                    return 2
        head_first = sum(1 for b, h in zip(base, head) if h["started_at"] < b["started_at"])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals = [r["metrics"][name]["value"] for r in base]
            h_vals = [r["metrics"][name]["value"] for r in head]
            result, wins = verdict(b_vals, h_vals, metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], b_vals, h_vals, result, wins,
                         head_first))

    print(f"{'workload':<17} {'metric':<12} {'base median':>13} {'head median':>13} "
          f"{'change':>8} {'spread b/h':>13} {'wins':>6}  verdict")
    for workload, name, unit, b_vals, h_vals, result, wins, _ in rows:
        b_med, h_med = median(b_vals), median(h_vals)
        change = (h_med - b_med) / abs(b_med) if b_med else 0.0
        print(f"{workload:<17} {name:<12} {b_med:>13.6g} {h_med:>13.6g} {change:>+8.1%} "
              f"{quartile_spread(b_vals):>6.1%}/{quartile_spread(h_vals):<6.1%} "
              f"{wins:>2}/{len(b_vals):<3}  {result}")
    pairs = {w: (len(b), hf) for w, _, _, b, _, _, _, hf in rows}
    for workload, (count, head_first) in pairs.items():
        note = "" if count >= MIN_PAIRS else f"; fewer than {MIN_PAIRS}, no gain can be claimed"
        print(f"{workload}: {count} pairs, head ran first in {head_first}{note}")
    unresolved = [f"{w} {m}" for w, m, *_, r, _, _ in rows if r == "unresolved"]
    if unresolved:
        print(f"unresolved (spread wider than the bound): {', '.join(unresolved)}")
    return 1 if any(r == "regressed" for *_, r, _, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
