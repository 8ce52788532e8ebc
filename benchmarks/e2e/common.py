"""Paths, fixed seeds and small statistics helpers shared by the benchmark."""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_FILE = ROOT / "BENCHMARK.json"
BASELINE_FILE = HERE / "baseline.json"

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1992

#: Seed of the simulated-time digest probe.  Independent of ``--seed`` and
#: ``--scale`` on purpose: the digest pins the paper's clock for fixed
#: inputs, so every run on every seed checks it against the baseline.
DIGEST_SEED = 20_240_611

#: Setups per run at full scale; ``setup_s`` is their median.
SETUP_REPS = 3


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def load_baseline() -> dict:
    try:
        return json.loads(BASELINE_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    ``REPRO_*`` variables are dropped so a developer's shell (kernel tier,
    executor, plan-cache switch) cannot change what is measured; the
    repository's ``src`` leads ``PYTHONPATH`` so the checkout under test is
    the code that runs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (``statistics`` rule)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf
