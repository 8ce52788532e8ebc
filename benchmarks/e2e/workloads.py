"""The five workloads; each run happens in a fresh process started by run.py.

    python benchmarks/e2e/workloads.py '{"workload": "lib-bigblock", "seed": 1,
        "seconds": 10, "scale": 1.0, "trace": false, "mode": "measure"}'

The process prints ``READY`` once it is set up (imports done, server up,
one untimed warm-up request answered).  In ``setup`` mode it then tears
down and exits; in ``measure`` mode it runs the timed interval, checks
every output and prints one JSON result as its last line.

Every input is generated from ``seed`` (request ``i`` draws from the
stream ``(seed, i)``).  A run issues a fixed number of requests,
``rate * seconds``, with each workload's rate set so that the run lasts
about ``seconds`` on the reference host: two commits measured with the
same arguments run identical requests, however fast either is.  Kernels
are pinned to ``compiled`` so the numbers do not move when the program's
default backend does.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import checks
import layers
from common import (
    DIGEST_SEED,
    HERE,
    OUT,
    ROOT,
    child_env,
    load_baseline,
    median,
    percentile,
)

KERNELS = "compiled"
#: Fewest requests a run times, whatever ``seconds`` says (tiny scales).
MIN_REQUESTS = 6
#: Warm-up fault set of lib-fresh-faults; never drawn as a timed fault set.
WARM_FAULTS = (3, 9)
#: Timed sorts per floor sample; the floor is the fastest.
FLOOR_REPS = 3
#: svc-small samples its floor this often while a phase runs.
FLOOR_PERIOD_S = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    keys: int
    faults: tuple[int, ...] | None  # None: a fresh fault set per request
    slo_ms: float  # latency limit behind slo_frac
    rate: float  # requests per second of run time on the reference host
    # The reference sort behind floor_x: "np.sort" where the request's time
    # goes to numpy, "sorted" (Python's list sort) where it goes to the
    # interpreter.  np.sort's speed does not follow the interpreter's on a
    # shared host, so it would make floor_x of those workloads drift.
    floor: str = "np.sort"

    def requests(self, seconds: float) -> int:
        return max(MIN_REQUESTS, round(self.rate * seconds))


WORKLOADS = {w.name: w for w in (
    # 62 rows x 8,456 keys: per-row local sort and compare-split row sorts.
    Workload("lib-bigblock", 6, 1 << 19, (3, 9), slo_ms=400.0, rate=8.0),
    # 16,380 rows x 17 keys: per-substage gathers/scatters and accounting;
    # the ~5 s cold schedule build lands in setup_s.
    Workload("lib-manyproc", 14, 1 << 18, (3, 9, 4100), slo_ms=800.0, rate=5.0),
    # Every request misses the schedule and compiled-program caches:
    # planning, schedule build and lowering dominate.
    Workload("lib-fresh-faults", 10, 1 << 14, None, slo_ms=800.0, rate=10.0,
             floor="sorted"),
    # Small jobs through the service: protocol, admission, fair queue,
    # dispatch and the executor hop dominate (faults from a 40-set catalog).
    # Half the run is phase A (open loop at SVC_RATE), half phase B (closed
    # loop, ``rate`` jobs per second of phase B).
    Workload("svc-small", 6, 2048, None, slo_ms=50.0, rate=480.0, floor="sorted"),
    # Large streamed results: frame transport and the big sort dominate.
    Workload("svc-stream", 10, 1 << 19, (3, 9, 100), slo_ms=800.0, rate=2.5),
)}

SVC_RATE = 150.0  # svc-small phase A arrivals per second (Poisson)
SVC_OUTSTANDING = 32  # svc-small phase B closed-loop concurrency
SVC_CATALOG = 40  # distinct fault sets svc-small draws from
SVC_TENANTS = ("acme", "zen")
PHASE_TIMEOUT_S = 60.0  # an accepted job unanswered this long is dropped


def scaled_keys(wl: Workload, scale: float) -> int:
    return max(64, int(wl.keys * scale))


# -- inputs ----------------------------------------------------------------------


def lib_keys(seed: int, i: int, count: int) -> np.ndarray:
    return np.random.default_rng((seed, i)).random(count)


def service_keys(job_seed: int, count: int) -> np.ndarray:
    """The keys a sort job's server regenerates from its seed."""
    return np.random.default_rng(job_seed).integers(0, 10**6, size=count).astype(float)


def np_floor_ms(keys: np.ndarray) -> float:
    """numpy's sort of ``keys``, in ms.

    The fastest of FLOOR_REPS in-place sorts of a copy held in one
    64-byte-aligned buffer: the time of numpy's sort algorithm alone.
    Timing ``np.sort`` itself also times a fresh allocation, whose address
    alignment moves a 2048-key sort between 8 and 12 us on the reference
    host.
    """
    raw = np.empty(keys.size + 8)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    buf = raw[skip:skip + keys.size]
    best = math.inf
    for _ in range(FLOOR_REPS):
        buf[:] = keys
        t0 = time.perf_counter()
        buf.sort()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def py_floor_ms(keys: np.ndarray) -> float:
    """Python's ``sorted`` of ``keys`` as a list, in ms (fastest of FLOOR_REPS)."""
    items = keys.tolist()
    best = math.inf
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        sorted(items)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def floors_ms(wl: Workload, keys: np.ndarray) -> tuple[float, float]:
    """``(the workload's floor, the np.sort floor)`` of ``keys``, in ms."""
    np_ms = np_floor_ms(keys)
    return (py_floor_ms(keys) if wl.floor == "sorted" else np_ms), np_ms


def floor_x(walls, floors) -> float:
    """Median over requests of latency / floor of the same keys."""
    return median(w / f for w, f in zip(walls, floors))


def job_seed(seed: int, i: int) -> int:
    """Request ``i``'s job seed: its low 20 bits are ``i``, which is what
    the traced server keys :func:`layers.traced_request` on."""
    return ((seed % (1 << 40)) << 20) | i


def fresh_fault_sets(seed: int, n: int):
    """Distinct fault sets for lib-fresh-faults: ``2 + (i mod 8)`` faults."""
    from repro.faults.model import FaultSet

    rng = np.random.default_rng((seed, 7))
    seen = {WARM_FAULTS}
    i = 0
    while True:
        r = 2 + i % 8
        faults = tuple(sorted(int(a) for a in rng.choice(1 << n, size=r, replace=False)))
        if faults in seen or not FaultSet(n, faults).satisfies_paper_model():
            continue
        seen.add(faults)
        yield faults
        i += 1


def fault_catalog(seed: int, n: int, r: int, size: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng((seed, 11))
    out: list[tuple[int, ...]] = []
    while len(out) < size:
        faults = tuple(sorted(int(a) for a in rng.choice(1 << n, size=r, replace=False)))
        if faults not in out:
            out.append(faults)
    return out


@dataclass
class Tally:
    """Request accounting plus the reasons a run is not correct."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # first few failed requests
    run_errors: list = field(default_factory=list)  # failed run-level checks

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def check(self, fn, *args) -> None:
        """Run a run-level check, recording its failure."""
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.run_errors.append(str(exc))

    def check_digest(self, wl: Workload, digest: str, cfg: dict) -> None:
        """The digest check; only a baseline recording may pin a new digest."""
        baseline = load_baseline()
        if cfg.get("recording") and wl.name not in baseline.get("sim_digest", {}):
            return
        self.check(checks.check_digest, wl.name, digest, baseline)


# -- the simulated-time probe ----------------------------------------------------


def probe_inputs(wl: Workload) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Fixed full-size inputs of the digest probe (no --seed, no --scale)."""
    if wl.name == "lib-fresh-faults":
        sets = fresh_fault_sets(DIGEST_SEED, wl.n)
        return [(lib_keys(DIGEST_SEED, i, wl.keys), next(sets)) for i in range(8)]
    if wl.name == "svc-small":
        faults = fault_catalog(DIGEST_SEED, wl.n, 3, SVC_CATALOG)[0]
        return [(service_keys(DIGEST_SEED, wl.keys), faults)]
    if wl.name == "svc-stream":
        return [(service_keys(DIGEST_SEED, wl.keys), wl.faults)]
    return [(lib_keys(DIGEST_SEED, 0, wl.keys), wl.faults)]


def sim_probe(wl: Workload, tally: Tally) -> tuple[str, list, dict]:
    """Run the probe untimed: ``(sim_digest, results, kernel counts)``.

    The first probe call runs with an ``obs`` tracer; its counters and
    phase list give the kernel's work counts (the same on every run).
    """
    from repro.core import ftsort
    from repro.obs import Tracer

    results = []
    tracer = Tracer()
    for idx, (keys, faults) in enumerate(probe_inputs(wl)):
        res = ftsort.fault_tolerant_sort(keys, wl.n, list(faults), kernels=KERNELS,
                                         obs=tracer if idx == 0 else None)
        tally.check(checks.check_sorted, res.sorted_keys, np.sort(keys),
                    f"{wl.name} probe {idx}")
        results.append(res)
    first = results[0]
    met = tracer.metrics
    rows = first.working_processors
    block = first.block_size
    executed = int(met.value("sort.cx.executed"))
    mirrored = int(met.value("sort.mirror.pairs"))
    counts = {
        "compiled.substages": float(len(first.machine.phases) - 1),
        "compiled.rows": float(rows),
        "compiled.block_keys": float(block),
        "compiled.cx_executed": float(executed),
        "compiled.cx_skipped": float(met.value("sort.cx.skipped")),
        # Computed, not measured: the local sort reads and writes every
        # row, each executed compare-split gathers two rows and scatters
        # two, each mirror pair moves two rows twice.
        "compiled.bytes_computed": float(
            8 * block * (2 * rows + 4 * executed + 4 * mirrored)),
    }
    return checks.sim_digest(results), results, counts


# -- result assembly -------------------------------------------------------------


def overhead(walls, traced_flags) -> float:
    traced = [w for w, t in zip(walls, traced_flags) if t]
    plain = [w for w, t in zip(walls, traced_flags) if not t]
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


def plancache_metrics(before: dict, after: dict, requests: int) -> dict:
    hits = after["total_hits"] - before["total_hits"]
    misses = after["total_misses"] - before["total_misses"]
    out = {"plancache.hit_frac": hits / (hits + misses) if hits + misses else 0.0}
    for section in ("plan", "canon", "sched", "compiled"):
        delta = after["misses"][section] - before["misses"][section]
        out[f"plancache.misses.{section}"] = delta / max(1, requests)
    return out


SERVICE_METRICS = (
    "client.ack_ms", "transport_ms", "server.queue_ms", "server.run_ms",
    "server.loop_busy_frac", "server.exec_busy_frac", "queue.batch_size_mean",
    "queue.rejected", "client.retries", "gen.late_ms.p99",
    "stream.first_frame_ms", "stream.transfer_ms", "stream.frames",
    "stream.mb_per_s", "client.stream_peak_mb",
)


def write_trace(name: str, processes) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}.json"
    path.write_text(json.dumps({"traceEvents": layers.chrome_trace(processes)}),
                    encoding="utf-8")
    return str(path.relative_to(ROOT))


#: Reported with the per-layer metrics, not gated: raw host timings drift
#: with the speed of a shared host (floor_x and sat_floor_x do not), and
#: on the ``sorted``-floor workloads np.sort does not follow that drift.
RAW_METRICS = ("wall_ms.p50", "keys_per_s", "np_floor_x")


def finish(wl, cfg, tally, e2e, layer_values, extra) -> dict:
    """The result document a measure-mode process prints last."""
    layer_values.update({name: e2e[name] for name in RAW_METRICS})
    return {
        "workload": wl.name,
        "floor": wl.floor,
        "correct": tally.failed == 0 and not tally.run_errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors + tally.run_errors,
        "e2e": e2e,
        "layers": layer_values if cfg["trace"] else {},
        **extra,
    }


# -- library workloads -----------------------------------------------------------


def run_lib(wl: Workload, cfg: dict) -> dict | None:
    from repro.core import ftsort
    from repro.plancache import PLAN_CACHE

    seed, scale = cfg["seed"], cfg["scale"]
    m = scaled_keys(wl, scale)
    fixed = list(wl.faults) if wl.faults is not None else None
    ftsort.fault_tolerant_sort(lib_keys(seed, 1 << 30, m), wl.n,
                               fixed or list(WARM_FAULTS), kernels=KERNELS)
    print("READY", flush=True)
    if cfg["mode"] == "setup":
        return None

    shm_before = checks.shm_entries()
    recorder = layers.Recorder()
    if cfg["trace"]:
        recorder.install()
    fault_sets = fresh_fault_sets(seed, wl.n) if fixed is None else None
    tally = Tally()
    walls, floors, np_floors, traced_flags, in_slo = [], [], [], [], 0
    cache_before = PLAN_CACHE.stats()
    for i in range(wl.requests(cfg["seconds"])):
        keys = lib_keys(seed, i, m)
        faults = fixed if fixed is not None else list(next(fault_sets))
        traced = cfg["trace"] and layers.traced_request(i)
        with recorder.request(i, traced):
            t0 = time.perf_counter()
            res = ftsort.fault_tolerant_sort(keys, wl.n, faults, kernels=KERNELS)
            t1 = time.perf_counter()
        floor, np_floor = floors_ms(wl, keys)
        floors.append(floor)
        np_floors.append(np_floor)
        expected = np.sort(keys)
        tally.attempted += 1
        try:
            checks.check_sorted(res.sorted_keys, expected, f"{wl.name} call {i}")
        except checks.CheckFailed as exc:
            tally.fail(str(exc))
        else:
            in_slo += (t1 - t0) * 1e3 <= wl.slo_ms
        walls.append((t1 - t0) * 1e3)
        traced_flags.append(traced)
    cache_after = PLAN_CACHE.stats()
    recorder.uninstall()

    digest, _, counts = sim_probe(wl, tally)
    tally.check_digest(wl, digest, cfg)
    tally.check(checks.check_shm, shm_before)

    e2e = {
        "wall_ms.p50": median(walls),
        "floor_x": floor_x(walls, floors),
        "np_floor_x": floor_x(walls, np_floors),
        "keys_per_s": m * len(walls) / (sum(walls) / 1e3),
        "sat_floor_x": sum(walls) / sum(floors),
        "slo_frac": in_slo / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer_values = {
        **layers.layer_metrics(recorder.spans, recorder.missing),
        **counts,
        **plancache_metrics(cache_before, cache_after, len(walls)),
        **{name: 0.0 for name in SERVICE_METRICS},
        "wall_ms.p90": percentile(walls, 90),
        "wall_ms.p99": percentile(walls, 99),
        "trace.overhead_frac": overhead(walls, traced_flags),
    }
    extra = {"samples": len(walls), "sim_digest": digest,
             "missing_layers": recorder.missing}
    if cfg["trace"]:
        extra["self_time"] = layers.self_time_table(recorder.spans)
        extra["trace_file"] = write_trace(
            wl.name, [(os.getpid(), "benchmark (library calls)", recorder.spans)])
    return finish(wl, cfg, tally, e2e, layer_values, extra)


# -- service workloads -----------------------------------------------------------


class Server:
    """A ``repro serve --jobs 1`` subprocess (through serve.py)."""

    def __init__(self, tag: str, spans: bool):
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{tag}-{os.getpid()}"
        self.port_file = stem.with_suffix(".port")
        self.spans_file = stem.with_suffix(".spans.json") if spans else None
        self.log_file = stem.with_suffix(".server.log")
        for path in (self.port_file, self.spans_file):
            if path is not None:
                path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "serve.py")]
        if self.spans_file is not None:
            cmd += ["--spans", str(self.spans_file)]
        cmd += ["--", "serve", "--port", "0", "--port-file", str(self.port_file),
                "--jobs", "1"]
        with open(self.log_file, "wb") as log:
            self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                         stdout=log, stderr=subprocess.STDOUT)

    def wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early (see {self.log_file})")
            try:
                text = self.port_file.read_text(encoding="utf-8").strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.005)
        raise RuntimeError("server never wrote its port file")

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def thread_ticks(self) -> dict[int, int]:
        """CPU ticks (user + system) per server thread."""
        out = {}
        base = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(base):
            try:
                with open(f"{base}/{tid}/stat", encoding="ascii") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except FileNotFoundError:  # thread ended between listdir and open
                continue
            out[int(tid)] = int(fields[11]) + int(fields[12])
        return out

    def busy_fracs(self, before: dict, after: dict, seconds: float) -> tuple[float, float]:
        """(event-loop thread, executor threads) CPU share of ``seconds``."""
        hz = os.sysconf("SC_CLK_TCK")
        delta = {tid: after[tid] - before.get(tid, 0) for tid in after}
        loop = delta.get(self.proc.pid, 0)
        rest = sum(d for tid, d in delta.items() if tid != self.proc.pid)
        return loop / hz / seconds, rest / hz / seconds

    def stop(self) -> None:
        """Wait for the drained server to exit; keep its log only on failure."""
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        finally:
            self.port_file.unlink(missing_ok=True)
        if code == 0:
            self.log_file.unlink(missing_ok=True)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.port_file.unlink(missing_ok=True)


@dataclass
class Job:
    index: int
    spec: dict
    tenant: str
    due: float = 0.0
    sent: float = 0.0
    ack: float = 0.0
    done: float = 0.0
    first: float = 0.0
    accepted: bool = False
    answered: bool = False
    retries: int = 0
    msg: dict | None = None
    error: str | None = None
    correct: bool = False
    traced: bool = False


async def submit(client, job: Job, rng: random.Random) -> dict:
    """Submit with the client's backpressure protocol: honour retry hints."""
    from repro.service.client import _RETRYABLE, _retry_delay_s

    for _ in range(100):
        ack = await client.submit(job.spec, tenant=job.tenant)
        if ack.get("ok") or ack.get("error") not in _RETRYABLE:
            return ack
        job.retries += 1
        await asyncio.sleep(_retry_delay_s(ack.get("retry_after_ms"), rng))
    return ack


async def run_job(client, job: Job, rng: random.Random) -> None:
    job.sent = time.perf_counter()
    ack = await submit(client, job, rng)
    job.ack = time.perf_counter()
    if not ack.get("ok"):
        job.error = f"refused: {ack.get('error')}"
        return
    job.accepted = True
    job.msg = await client.result(ack["job_id"])
    job.done = time.perf_counter()
    job.answered = True


def check_answered(jobs, tally: Tally) -> None:
    tally.check(checks.check_answers, [j.index for j in jobs if j.accepted],
                [j.index for j in jobs if j.answered])
    for job in jobs:
        if job.accepted and not job.answered:
            job.error = "dropped"


async def settle(tasks, jobs, tally) -> None:
    """Wait for every job; an accepted job left unanswered is dropped."""
    if tasks:
        _, pending = await asyncio.wait(tasks, timeout=PHASE_TIMEOUT_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
    check_answered(jobs, tally)


def verify_jobs(wl: Workload, jobs, tally: Tally) -> None:
    """Untimed: each job's result against ``np.sort`` of its keys."""
    for job in jobs:
        tally.attempted += 1
        if job.msg is None:
            tally.fail(f"job {job.index}: {job.error}")
            continue
        expected = np.sort(service_keys(job.spec["seed"], job.spec["keys"]))
        try:
            checks.check_service_result(job.msg, expected, f"job {job.index}")
        except checks.CheckFailed as exc:
            tally.fail(str(exc))
        else:
            job.correct = True


class FloorSampler:
    """Floors timed while a service phase runs.

    Every FLOOR_PERIOD_S the floors of the latest job's keys are timed in
    the load generator.  Timing them during the phase rather than after it
    lets both sides of ``floor_x`` see the same host speed; on a shared
    host that speed drifts by 10-20% from one minute to the next.
    """

    def __init__(self, wl: Workload, latest):
        self.wl = wl
        self.latest = latest
        self.samples: list[tuple[float, float]] = []
        self._stop = asyncio.Event()
        self._task = asyncio.create_task(self._run())

    async def _run(self) -> None:
        while not self._stop.is_set():
            job = self.latest()
            if job is not None:
                self.samples.append(floors_ms(
                    self.wl, service_keys(job.spec["seed"], job.spec["keys"])))
            try:
                await asyncio.wait_for(self._stop.wait(), FLOOR_PERIOD_S)
            except asyncio.TimeoutError:
                pass

    async def stop(self) -> tuple[float, float]:
        """End sampling: the median (workload floor, np.sort floor) in ms."""
        self._stop.set()
        await self._task
        return (median(s[0] for s in self.samples),
                median(s[1] for s in self.samples))


def sort_job(wl: Workload, seed: int, faults, keys: int, **extra) -> dict:
    return {"kind": "sort", "n": wl.n, "faults": list(faults), "keys": keys,
            "seed": seed, "kernels": KERNELS, **extra}


async def warm_up(client, wl: Workload, probe_faults, keys: int,
                  stream: bool) -> dict:
    """The untimed warm-up request: the digest probe's own job.

    DIGEST_SEED is not a traced request id, so a traced server keeps the
    warm-up out of its spans.
    """
    spec = sort_job(wl, DIGEST_SEED, probe_faults, keys, stream=stream)
    ack = await client.submit(spec, tenant=SVC_TENANTS[0], retry=True)
    if not ack.get("ok"):
        raise RuntimeError(f"warm-up refused: {ack}")
    if stream:
        chunks = [c async for c in client.iter_result(ack["job_id"])]
        return {"msg": client.stream_summary(ack["job_id"]),
                "keys": np.concatenate(chunks)}
    return {"msg": await client.result(ack["job_id"])}


def service_layers(wl, cfg, server, recorder, timed, jobs, stats_before,
                   stats_after, busy, extra_layers) -> tuple[dict, dict]:
    """Per-layer values of a service run, plus trace outputs.

    Per-job timings are medians over ``timed``, the jobs behind
    ``wall_ms.p50``; counters cover every job of the run.
    """
    answered = [j for j in timed if j.msg is not None and j.msg.get("ok")]
    server_spans: list = []
    missing: list = []
    if server.spans_file is not None and server.spans_file.exists():
        doc = json.loads(server.spans_file.read_text(encoding="utf-8"))
        server_spans, missing = doc["spans"], doc["missing"]
        server.spans_file.unlink()
    completed = stats_after["completed"] - stats_before["completed"]
    batches = stats_after["batches"] - stats_before["batches"]
    rejected = sum(stats_after["rejected"].values()) - sum(stats_before["rejected"].values())
    values = {
        **layers.layer_metrics(server_spans, missing),
        **plancache_metrics(stats_before["plancache"], stats_after["plancache"],
                            completed),
        "client.ack_ms": median((j.ack - j.sent) * 1e3 for j in answered),
        "transport_ms": median((j.done - j.sent) * 1e3 - j.msg["latency_ms"]
                            for j in answered),
        "server.queue_ms": median(j.msg["queue_ms"] for j in answered),
        "server.run_ms": median(j.msg["run_ms"] for j in answered),
        "server.loop_busy_frac": busy[0],
        "server.exec_busy_frac": busy[1],
        "queue.batch_size_mean": completed / batches if batches else 0.0,
        "queue.rejected": float(rejected),
        "client.retries": float(sum(j.retries for j in jobs)),
        **extra_layers,
    }
    extra = {"missing_layers": missing}
    if cfg["trace"]:
        extra["self_time"] = layers.self_time_table(server_spans)
        extra["trace_file"] = write_trace(wl.name, [
            (os.getpid(), "benchmark (load generator)", recorder.spans),
            (server.proc.pid, "repro serve", server_spans),
        ])
    return values, extra


def check_warm_up(warm: dict, expected: np.ndarray, elapsed: float) -> None:
    checks.check_service_result(warm["msg"], expected, "warm-up job")
    if "keys" in warm:
        checks.check_sorted(warm["keys"], expected, "warm-up stream")
    if warm["msg"]["result"]["elapsed_sim"] != elapsed:
        raise checks.CheckFailed("warm-up job: server's simulated time differs "
                                 "from the in-process run")


def check_probe(wl: Workload, warm: dict, tally: Tally, cfg: dict) -> tuple[str, dict]:
    """Digest the probe in-process and hold the server's warm-up answer to it."""
    digest, results, counts = sim_probe(wl, tally)
    keys, _ = probe_inputs(wl)[0]
    tally.check(check_warm_up, warm, np.sort(keys), results[0].elapsed)
    tally.check_digest(wl, digest, cfg)
    return digest, counts


async def run_svc_small(wl: Workload, cfg: dict, server: Server) -> dict | None:
    from repro.service import ServiceClient

    seed, seconds = cfg["seed"], cfg["seconds"]
    port = server.wait_port()
    clients = [await ServiceClient.connect(port=port, jitter_seed=seed + k)
               for k in range(len(SVC_TENANTS))]
    try:
        probe_faults = probe_inputs(wl)[0][1]
        warm = await warm_up(clients[0], wl, probe_faults, wl.keys, stream=False)
        print("READY", flush=True)
        if cfg["mode"] == "setup":
            await clients[0].drain()
            server.stop()
            return None
        return await _svc_small_measure(wl, cfg, server, clients, warm, seed, seconds)
    finally:
        for client in clients:
            await client.close()


async def _svc_small_measure(wl, cfg, server, clients, warm, seed, seconds):
    keys = scaled_keys(wl, cfg["scale"])
    catalog = fault_catalog(seed, wl.n, 3, SVC_CATALOG)
    rng = np.random.default_rng((seed, 12))
    retry_rng = random.Random(seed)
    recorder = layers.Recorder()
    tally = Tally()
    shm_before = checks.shm_entries()
    stats_before = await clients[0].stats()

    def make_job(i: int) -> Job:
        faults = catalog[int(rng.integers(len(catalog)))]
        return Job(i, sort_job(wl, job_seed(seed, i), faults, keys),
                   SVC_TENANTS[i % len(SVC_TENANTS)],
                   traced=cfg["trace"] and layers.traced_request(i))

    # Phase A: open loop, Poisson arrivals, latency timed from due time.
    phase_a_s = seconds / 2  # Poisson arrivals: the count is seeded too
    offsets, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / SVC_RATE))
        if t > phase_a_s and len(offsets) >= MIN_REQUESTS:
            break
        offsets.append(t)
    jobs_a = [make_job(i) for i in range(len(offsets))]
    tasks = []
    sampler = FloorSampler(wl, lambda: jobs_a[len(tasks) - 1] if tasks else None)
    t0 = time.perf_counter()
    for job, offset in zip(jobs_a, offsets):
        job.due = t0 + offset
        delay = job.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            run_job(clients[job.index % len(clients)], job, retry_rng)))
    await settle(tasks, jobs_a, tally)
    floor_a, np_floor_a = await sampler.stop()

    # Phase B: closed loop, SVC_OUTSTANDING jobs in flight.
    jobs_b: list[Job] = []
    ticks_before = server.thread_ticks()
    t_b = time.perf_counter()
    count_b = wl.requests(seconds / 2)

    async def worker() -> None:
        while len(jobs_b) < count_b:
            job = make_job(len(jobs_a) + len(jobs_b))
            jobs_b.append(job)
            await run_job(clients[job.index % len(clients)], job, retry_rng)

    sampler = FloorSampler(wl, lambda: jobs_b[-1] if jobs_b else None)
    tasks = [asyncio.create_task(worker()) for _ in range(SVC_OUTSTANDING)]
    await settle(tasks, jobs_b, tally)
    floor_b, _ = await sampler.stop()
    busy = server.busy_fracs(ticks_before, server.thread_ticks(),
                             time.perf_counter() - t_b)

    stats_after = await clients[0].stats()
    rss = server.vm_hwm_mb()
    await clients[0].drain()
    server.stop()
    tally.check(checks.check_shm, shm_before)

    verify_jobs(wl, jobs_a + jobs_b, tally)
    digest, counts = check_probe(wl, warm, tally, cfg)
    for job in jobs_a + jobs_b:
        if job.traced and job.msg is not None:
            recorder.add("client.submit", job.sent, job.ack, job.spec["seed"])
            recorder.add("client.wait", job.ack, job.done, job.spec["seed"])

    answered_a = [j for j in jobs_a if j.msg is not None]
    from_due = [(j.done - j.due) * 1e3 for j in answered_a]
    # Phase B throughput over its steady middle: completions between the
    # 10th and 90th percentile completion times (no ramp-up, no drain tail).
    done_b = sorted(j.done for j in jobs_b if j.correct)
    lo, hi = len(done_b) // 10, len(done_b) * 9 // 10
    jobs_per_s = (hi - lo) / (done_b[hi] - done_b[lo]) if hi > lo else 0.0
    e2e = {
        "wall_ms.p50": median(from_due),
        "floor_x": median(from_due) / floor_a,
        "np_floor_x": median(from_due) / np_floor_a,
        "keys_per_s": keys * jobs_per_s,
        "sat_floor_x": 1e3 / jobs_per_s / floor_b if jobs_per_s else 0.0,
        "slo_frac": sum(1 for j in answered_a
                        if j.correct and (j.done - j.due) * 1e3 <= wl.slo_ms)
        / len(jobs_a),
        "peak_rss_mb": rss,
    }
    late = [(j.sent - j.due) * 1e3 for j in jobs_a]
    values, extra = service_layers(
        wl, cfg, server, recorder, jobs_a, jobs_a + jobs_b, stats_before,
        stats_after, busy,
        {"gen.late_ms.p99": percentile(late, 99),
         "stream.first_frame_ms": 0.0, "stream.transfer_ms": 0.0,
         "stream.frames": 0.0, "stream.mb_per_s": 0.0,
         "client.stream_peak_mb": 0.0})
    values.update(counts)
    values["wall_ms.p90"] = percentile(from_due, 90)
    values["wall_ms.p99"] = percentile(from_due, 99)
    values["trace.overhead_frac"] = overhead(from_due, [j.traced for j in answered_a])
    extra.update({"samples": len(jobs_a), "phase_b_jobs": len(jobs_b),
                  "sim_digest": digest,
                  "phase_a_valid": percentile(late, 99) <= 5.0})
    return finish(wl, cfg, tally, e2e, values, extra)


async def run_svc_stream(wl: Workload, cfg: dict, server: Server) -> dict | None:
    from repro.service import ServiceClient

    seed, seconds = cfg["seed"], cfg["seconds"]
    port = server.wait_port()
    client = await ServiceClient.connect(port=port, jitter_seed=seed)
    try:
        warm = await warm_up(client, wl, wl.faults, wl.keys, stream=True)
        print("READY", flush=True)
        if cfg["mode"] == "setup":
            await client.drain()
            server.stop()
            return None
        return await _svc_stream_measure(wl, cfg, server, client, warm, seed, seconds)
    finally:
        await client.close()


async def _svc_stream_measure(wl, cfg, server, client, warm, seed, seconds):
    from repro.service.streams import StreamError

    keys = scaled_keys(wl, cfg["scale"])
    retry_rng = random.Random(seed)
    recorder = layers.Recorder()
    tally = Tally()
    shm_before = checks.shm_entries()
    stats_before = await client.stats()
    ticks_before = server.thread_ticks()
    jobs: list[Job] = []
    frames, peaks, mb_per_s, floors, np_floors = [], [], [], [], []
    start = time.perf_counter()
    for i in range(wl.requests(seconds)):
        job = Job(i, sort_job(wl, job_seed(seed, i), wl.faults, keys, stream=True),
                  SVC_TENANTS[0], traced=cfg["trace"] and layers.traced_request(i))
        jobs.append(job)
        if job.traced:
            tracemalloc.start()
        chunks = []

        async def consume(job_id: str) -> None:
            async for chunk in client.iter_result(job_id):
                if not chunks:
                    job.first = time.perf_counter()
                chunks.append(chunk)

        job.sent = time.perf_counter()
        ack = await submit(client, job, retry_rng)
        job.ack = time.perf_counter()
        if not ack.get("ok"):
            job.error = f"refused: {ack.get('error')}"
        else:
            job.accepted = True
            try:
                await asyncio.wait_for(consume(ack["job_id"]), PHASE_TIMEOUT_S)
                job.msg = client.stream_summary(ack["job_id"])
                job.answered = True
            except StreamError as exc:
                job.error = f"stream failed: {exc}"
                job.answered = True
            except asyncio.TimeoutError:
                job.error = "dropped"
            job.done = time.perf_counter()
        if job.traced:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        # Untimed: the streamed bytes against np.sort of the job's keys.
        tally.attempted += 1
        if job.msg is None:
            tally.fail(f"job {i}: {job.error}")
            continue
        expected_keys = service_keys(job.spec["seed"], keys)
        floor, np_floor = floors_ms(wl, expected_keys)
        floors.append(floor)
        np_floors.append(np_floor)
        expected = np.sort(expected_keys)
        try:
            checks.check_sorted(np.concatenate(chunks) if chunks else np.empty(0),
                                expected, f"stream {i}")
            checks.check_service_result(job.msg, expected, f"stream {i}")
        except checks.CheckFailed as exc:
            tally.fail(str(exc))
            continue
        job.correct = True
        frames.append(job.msg["frames"])
        if job.done > job.first:
            mb_per_s.append(expected.nbytes / 1e6 / (job.done - job.first))
    elapsed = time.perf_counter() - start
    busy = server.busy_fracs(ticks_before, server.thread_ticks(), elapsed)
    stats_after = await client.stats()
    rss = server.vm_hwm_mb()
    await client.drain()
    server.stop()
    check_answered(jobs, tally)
    tally.check(checks.check_shm, shm_before)
    digest, counts = check_probe(wl, warm, tally, cfg)

    answered = [j for j in jobs if j.msg is not None]
    for job in answered:
        if job.traced:
            recorder.add("client.submit", job.sent, job.ack, job.spec["seed"])
            recorder.add("stream.first_frame", job.ack, job.first, job.spec["seed"])
            recorder.add("stream.transfer", job.first, job.done, job.spec["seed"])
    walls = [(j.done - j.sent) * 1e3 for j in answered]
    e2e = {
        "wall_ms.p50": median(walls),
        "floor_x": floor_x(walls, floors),
        "np_floor_x": floor_x(walls, np_floors),
        "keys_per_s": keys * len(answered) / (sum(walls) / 1e3),
        "sat_floor_x": sum(walls) / sum(floors),
        "slo_frac": sum(1 for j in answered
                        if j.correct and (j.done - j.sent) * 1e3 <= wl.slo_ms) / len(jobs),
        "peak_rss_mb": rss,
    }
    values, extra = service_layers(
        wl, cfg, server, recorder, jobs, jobs, stats_before, stats_after, busy,
        {"gen.late_ms.p99": 0.0,
         "stream.first_frame_ms": median((j.first - j.sent) * 1e3 for j in answered),
         "stream.transfer_ms": median((j.done - j.first) * 1e3 for j in answered),
         "stream.frames": median(frames),
         "stream.mb_per_s": median(mb_per_s),
         "client.stream_peak_mb": median(peaks)})
    values.update(counts)
    values["wall_ms.p90"] = percentile(walls, 90)
    values["wall_ms.p99"] = percentile(walls, 99)
    values["trace.overhead_frac"] = overhead(walls, [j.traced for j in answered])
    extra.update({"samples": len(jobs), "sim_digest": digest})
    return finish(wl, cfg, tally, e2e, values, extra)


def run_svc(wl: Workload, cfg: dict) -> dict | None:
    server = Server(wl.name, spans=cfg["trace"] and cfg["mode"] == "measure")
    try:
        runner = run_svc_small if wl.name == "svc-small" else run_svc_stream
        return asyncio.run(runner(wl, cfg, server))
    finally:
        server.kill()


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[0])
    wl = WORKLOADS[cfg["workload"]]
    result = (run_lib if wl.name.startswith("lib-") else run_svc)(wl, cfg)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
