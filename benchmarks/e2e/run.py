"""End-to-end benchmark of the fault-tolerant sort against the np.sort floor.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed S] [--trace]
                                 [--seconds T] [--scale F] [--out FILE]
    python benchmarks/e2e/run.py --self-test
    python benchmarks/e2e/run.py --record-baseline

Each workload runs in fresh processes (``workloads.py``) with ``REPRO_*``
variables removed: ``SETUP_REPS`` of them only set up (their median is
``setup_s``), the last one also measures.  Every metric is printed with its
unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics of BENCHMARK.json, or with ``--trace`` its per-layer metrics.  The
exit code is non-zero when any output was wrong.

See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time

from common import (
    BASELINE_FILE,
    DEFAULT_SEED,
    HERE,
    ROOT,
    SETUP_REPS,
    SRC,
    child_env,
    load_baseline,
    load_spec,
    median,
)

#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170.0


class WorkloadError(RuntimeError):
    """A workload process crashed or timed out (no result to report)."""


def host_info() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spawn(cfg: dict) -> tuple[float, dict | None]:
    """Run one workload process: ``(seconds from spawn to READY, result)``."""
    cmd = [sys.executable, str(HERE / "workloads.py"), json.dumps(cfg)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready_s = None
        last = ""
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise WorkloadError(f"{cfg['workload']} ({cfg['mode']}) exited with code "
                            f"{code}{'' if ready_s else ' before READY'}")
    if cfg["mode"] == "setup":
        return ready_s, None
    try:
        return ready_s, json.loads(last)
    except ValueError:
        raise WorkloadError(f"{cfg['workload']}: no result line") from None


def run_workload(name: str, args, spec: dict) -> dict:
    reps = SETUP_REPS if args.scale >= 1.0 and not args.trace else 1
    setups = []
    result = None
    started_at = time.time()
    for rep in range(reps):
        cfg = {"workload": name, "seed": args.seed, "seconds": args.seconds,
               "scale": args.scale, "trace": bool(args.trace),
               "mode": "measure" if rep == reps - 1 else "setup",
               "recording": args.record_baseline}
        ready_s, result = spawn(cfg)
        setups.append(ready_s)
    values = dict(result.pop("e2e"), setup_s=median(setups))
    layer_values = result.pop("layers")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer_values if args.trace else values
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        raise WorkloadError(f"{name}: metrics not produced: {missing}")
    return {
        **result,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started_at": started_at,
        "setup_runs_s": setups,
        "e2e": values,
        "layers": layer_values,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def print_record(rec: dict) -> None:
    attempted, failed = rec["attempted"], rec["failed"]
    print(f"== {rec['workload']}  seed {rec['seed']}  scale {rec['scale']}  "
          f"{rec['seconds']} s  {rec.get('samples', attempted)} timed requests  "
          f"({'traced' if rec['trace'] else 'untraced'})")
    for name, metric in rec["metrics"].items():
        print(f"   {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    if not rec["trace"]:
        e2e = rec["e2e"]
        print(f"   not gated: {e2e['wall_ms.p50']:.4g} ms median, "
              f"{e2e['keys_per_s']:.4g} keys/s, np_floor_x {e2e['np_floor_x']:.4g} "
              f"(floor: {rec['floor']})")
    print(f"   {'error_frac':<26} {failed / max(1, attempted):>14.6g} fraction "
          f"({failed}/{attempted})")
    for layer in rec.get("missing_layers", []):
        print(f"   layer {layer}: missing (time charged to its parent)")
    if rec.get("self_time"):
        print(f"   {'self time by layer':<26} {'calls':>7} {'self ms':>10} {'share':>7}")
        for row in rec["self_time"]:
            print(f"   {row['layer']:<26} {row['calls']:>7} {row['self_ms']:>10.1f} "
                  f"{row['self_share']:>7.1%}")
        print(f"   chrome trace: {rec['trace_file']}")
    if rec.get("phase_a_valid") is False:
        print("   WARNING: load generator ran late (gen.late_ms.p99 > 5 ms); "
              "phase A is not valid")
    for err in rec["errors"]:
        print(f"   FAILED: {err}")
    print(f"   correct: {'yes' if rec['correct'] else 'NO'}", flush=True)


def summary_line(records: list[dict]) -> dict:
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def record_baseline(args, spec: dict, records: list[dict], traced: list[dict]) -> None:
    baseline = load_baseline()
    baseline.update({
        "recorded_at": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "sim_digest": {r["workload"]: r["sim_digest"] for r in records},
        "end_to_end": {r["workload"]: r["metrics"] for r in records},
        "per_layer": {r["workload"]: r["metrics"] for r in traced},
    })
    BASELINE_FILE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"baseline written to {BASELINE_FILE.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=names,
                        help="workload(s) to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="timed interval per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run instead of end-to-end")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink key counts and the interval (smoke runs)")
    parser.add_argument("--out", default=None,
                        help="append one JSON record per workload to this file")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every correctness check can fail")
    parser.add_argument("--record-baseline", action="store_true",
                        help="rewrite baseline.json from a full-size run")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([sys.executable, str(HERE / "selftest.py")],
                              cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S
                              ).returncode
    if args.scale <= 0 or args.seconds <= 0:
        parser.error("--scale and --seconds must be positive")
    args.seconds *= args.scale
    if args.record_baseline and (args.scale != 1.0 or args.trace or args.workload
                                 or args.seconds != spec["run_seconds"]):
        parser.error("--record-baseline takes a full-size run of every workload "
                     "(no --scale, --seconds, --trace or --workload)")

    records = []
    traced = []
    try:
        for name in args.workload or names:
            records.append(run_workload(name, args, spec))
            print_record(records[-1])
        if args.record_baseline:
            args.trace = 1
            for name in names:
                traced.append(run_workload(name, args, spec))
                print_record(traced[-1])
            args.trace = 0
    except WorkloadError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for rec in records + traced:
                fh.write(json.dumps({**rec, "host": host_info()}) + "\n")
    ok = all(r["correct"] for r in records + traced)
    if args.record_baseline:
        if not ok:
            print("run.py: not recording a baseline from an incorrect run",
                  file=sys.stderr)
            return 1
        record_baseline(args, spec, records, traced)
    print(json.dumps(summary_line(records)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
