"""Smoke test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at ``--scale 0.05``, untraced and traced, and checks
that every metric BENCHMARK.json declares is printed with its unit, that
the scale is recorded, and that a scaled run never reaches the baseline.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(w["name"] for w in SPEC["workloads"])


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, declared", [
    ("0", SPEC["end_to_end"]),
    ("1", SPEC["per_layer"]),
])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, trace, declared):
    baseline = (HERE / "baseline.json").read_bytes()
    out = tmp_path / "runs.jsonl"
    proc = run("--scale", "0.05", "--trace", trace, "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= len(WORKLOADS)
    for metric in declared:
        line = re.compile(rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                          rf"{re.escape(metric['unit'])}$", re.M)
        assert len(line.findall(proc.stdout)) == len(WORKLOADS), metric["name"]

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sorted(r["workload"] for r in records) == WORKLOADS
    for rec in records:
        assert rec["scale"] == 0.05
        assert set(rec["metrics"]) == {m["name"] for m in declared}
    assert (HERE / "baseline.json").read_bytes() == baseline


def test_scaled_run_cannot_record_a_baseline():
    baseline = (HERE / "baseline.json").read_bytes()
    proc = run("--record-baseline", "--scale", "0.05")
    assert proc.returncode != 0
    assert (HERE / "baseline.json").read_bytes() == baseline


def test_self_test_shows_every_check_can_fail():
    proc = run("--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "rejected" in proc.stdout and "FAIL" not in proc.stdout
