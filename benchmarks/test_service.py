"""Service load benchmark — writes ``BENCH_service.json``.

A load generator drives an in-process :class:`SortingService` over real
TCP loopback with two tenants that share one **fault catalog**: the
faults belong to the machine, as in the paper's deployment, so both
tenants submit jobs over the same exact fault sets, each cycling the
catalog in its own order.  Three questions, one JSON record:

* **Throughput/latency** — p50/p99 end-to-end latency and jobs/sec at
  full queue depth (>= 1k jobs across the 2 tenants in full mode).
* **Cross-tenant cache sharing** — the combined plan-cache hit rate with
  both tenants on the shared process-wide cache must *exceed* the
  combined rate when each tenant runs against its own isolated (cleared)
  cache: on the shared cache a fault set's planning misses are paid by
  whichever tenant submits it first, and the other tenant hits.
* **Drain integrity** — a drain issued while the queue is deep loses zero
  accepted jobs: every ack'd job delivers a result before ``drained``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.plancache import PLAN_CACHE
from repro.service import ServiceClient, SortingService

SEED = 1992
N = 5
R_FAULTS = 3
KEYS = 256
TENANTS = ("acme", "zen")


def _catalog(size: int, rng) -> list[tuple[int, ...]]:
    """``size`` distinct ``R_FAULTS``-fault sets of ``Q_N``."""
    catalog: list[tuple[int, ...]] = []
    while len(catalog) < size:
        faults = tuple(sorted(rng.choice(1 << N, size=R_FAULTS, replace=False).tolist()))
        if faults not in catalog:
            catalog.append(faults)
    return catalog


def _streams(catalog: list, repeats: int, rng) -> dict[str, list]:
    """Each tenant's job stream: the catalog in its own order, ``repeats`` times."""
    streams = {}
    for tenant in TENANTS:
        order = [catalog[i] for i in rng.permutation(len(catalog))]
        streams[tenant] = order * repeats
    return streams


def _job(faults: tuple[int, ...], seed: int) -> dict:
    return {"kind": "sort", "n": N, "faults": list(faults), "keys": KEYS,
            "seed": seed, "backend": "phase"}


def _pctl(values: list, q: float) -> float:
    return values[round(q * (len(values) - 1))]


def _rate(counters: dict) -> float:
    total = counters["hits"] + counters["misses"]
    return counters["hits"] / total if total else 0.0


async def _run_streams(streams: dict[str, list], sample_depth=None) -> dict:
    """Run interleaved tenant streams against a fresh service; return stats."""
    PLAN_CACHE.configure(enabled=True)
    PLAN_CACHE.clear(reset_counters=True)
    svc = SortingService(max_queued=4096, max_queued_per_tenant=4096)
    server = await svc.start_tcp()
    port = server.sockets[0].getsockname()[1]
    clients = {t: await ServiceClient.connect(port=port) for t in streams}
    ops = await ServiceClient.connect(port=port)

    interleaved = []
    for i in range(max(len(s) for s in streams.values())):
        for tenant, stream in streams.items():
            if i < len(stream):
                interleaved.append((tenant, stream[i], i))

    peak_depth = 0
    t0 = time.perf_counter()
    acks = []
    for k, (tenant, faults, i) in enumerate(interleaved):
        ack = await clients[tenant].submit(
            _job(faults, seed=SEED + i), tenant=tenant, retry=True)
        assert ack["ok"], ack
        acks.append((tenant, ack["job_id"]))
        if sample_depth is not None and k % sample_depth == 0:
            peak_depth = max(peak_depth, svc.queue.depth)
    depth_at_drain = svc.queue.depth
    in_flight_at_drain = svc.in_flight
    drain_task = asyncio.create_task(ops.drain())
    results = [await clients[t].result(jid) for t, jid in acks]
    drained = await drain_task
    wall = time.perf_counter() - t0

    assert all(r["ok"] and r["result"]["verified"] for r in results)
    stats = svc.stats()
    for c in (*clients.values(), ops):
        await c.close()
    server.close()
    await server.wait_closed()
    await svc.aclose()
    return {
        "results": results,
        "stats": stats,
        "drained": drained,
        "wall": wall,
        "peak_depth": max(peak_depth, depth_at_drain),
        "depth_at_drain": depth_at_drain,
        "in_flight_at_drain": in_flight_at_drain,
    }


class TestServiceLoad:
    def test_load_latency_cache_sharing_and_drain(self, fast_mode, bench_json):
        fault_sets, repeats = (12, 2) if fast_mode else (30, 17)
        import numpy as np

        rng = np.random.default_rng(SEED)
        streams = _streams(_catalog(fault_sets, rng), repeats, rng)
        total_jobs = sum(len(s) for s in streams.values())

        # -- phase 1: both tenants on the shared cache -----------------------
        shared = asyncio.run(_run_streams(streams, sample_depth=25))
        lat = sorted(r["latency_ms"] for r in shared["results"])
        stats = shared["stats"]
        load = {
            "jobs_total": total_jobs,
            "tenants": list(TENANTS),
            "p50_ms": round(_pctl(lat, 0.50), 3),
            "p99_ms": round(_pctl(lat, 0.99), 3),
            "max_ms": round(lat[-1], 3),
            "jobs_per_sec": round(total_jobs / shared["wall"], 1),
            "wall_seconds": round(shared["wall"], 3),
            "peak_queue_depth": shared["peak_depth"],
            "batches": stats["batches"],
            "batched_jobs": stats["batched_jobs"],
            "rejected": stats["rejected"],
        }
        drain = {
            "queue_depth_at_request": shared["depth_at_drain"],
            "in_flight_at_request": shared["in_flight_at_drain"],
            "accepted": total_jobs,
            "delivered": len(shared["results"]),
            "lost": total_jobs - len(shared["results"]),
            "drained_completed": shared["drained"]["completed"],
        }
        shared_tenants = {
            t: stats["tenants"][t]["plancache"] for t in TENANTS
        }
        shared_hits = sum(c["hits"] for c in shared_tenants.values())
        shared_total = shared_hits + sum(c["misses"] for c in shared_tenants.values())
        shared_rate = shared_hits / shared_total

        # -- phase 2: each tenant against its own isolated cache -------------
        isolated_tenants = {}
        for t in TENANTS:
            solo = asyncio.run(_run_streams({t: streams[t]}))
            isolated_tenants[t] = solo["stats"]["tenants"][t]["plancache"]
        iso_hits = sum(c["hits"] for c in isolated_tenants.values())
        iso_total = iso_hits + sum(c["misses"] for c in isolated_tenants.values())
        iso_rate = iso_hits / iso_total

        plancache = {
            "shared": {"per_tenant": shared_tenants,
                       "combined_hit_rate": round(shared_rate, 4)},
            "isolated": {"per_tenant": isolated_tenants,
                         "combined_hit_rate": round(iso_rate, 4)},
            "cross_tenant_gain": round(shared_rate - iso_rate, 4),
        }

        # -- phase 3 (full mode): low-repeat focused comparison --------------
        # The cross-tenant win is one fault set's first-sighting misses
        # per catalog entry, so the heavily-repeated 1k-job stream dilutes
        # the rate gap.  Two passes over the same catalog show it at full
        # strength.
        if not fast_mode:
            f_rng = np.random.default_rng(SEED)
            f_streams = _streams(_catalog(fault_sets, f_rng), 2, f_rng)
            f_shared = asyncio.run(_run_streams(f_streams))
            fs = {t: f_shared["stats"]["tenants"][t]["plancache"]
                  for t in TENANTS}
            fs_rate = _rate({
                "hits": sum(c["hits"] for c in fs.values()),
                "misses": sum(c["misses"] for c in fs.values())})
            fi = {}
            for t in TENANTS:
                solo = asyncio.run(_run_streams({t: f_streams[t]}))
                fi[t] = solo["stats"]["tenants"][t]["plancache"]
            fi_rate = _rate({
                "hits": sum(c["hits"] for c in fi.values()),
                "misses": sum(c["misses"] for c in fi.values())})
            plancache["focused_low_repeat"] = {
                "jobs": sum(len(s) for s in f_streams.values()),
                "repeats": 2,
                "shared_hit_rate": round(fs_rate, 4),
                "isolated_hit_rate": round(fi_rate, 4),
                "cross_tenant_gain": round(fs_rate - fi_rate, 4),
            }
            assert fs_rate > fi_rate
        print(f"\nservice load: {total_jobs} jobs / {len(TENANTS)} tenants: "
              f"p50 {load['p50_ms']}ms p99 {load['p99_ms']}ms "
              f"{load['jobs_per_sec']} jobs/s, peak depth "
              f"{load['peak_queue_depth']}, drain lost {drain['lost']}")
        print(f"plan-cache hit rate: shared {shared_rate:.3f} vs "
              f"isolated {iso_rate:.3f} "
              f"(cross-tenant gain {shared_rate - iso_rate:+.3f})")

        bench_json("service", "workload", {
            "kind": "sort", "n": N, "r": R_FAULTS, "keys": KEYS,
            "catalog_fault_sets": fault_sets, "repeats": repeats,
            "seed": SEED,
        })
        bench_json("service", "load", load)
        bench_json("service", "drain", drain)
        bench_json("service", "plancache", plancache)
        bench_json("service", "fast_mode", fast_mode)
        bench_json("service", "cpu_count", os.cpu_count() or 1)

        # Graceful drain loses zero accepted jobs — the hard guarantee.
        assert drain["lost"] == 0
        assert drain["drained_completed"] == total_jobs
        # Sharing the cache across tenants beats per-tenant isolation when
        # the tenants' jobs run on the same machine's fault sets.
        assert shared_rate > iso_rate, (
            f"cross-tenant hit rate {shared_rate:.4f} does not beat "
            f"isolated {iso_rate:.4f}")
        if not fast_mode:
            assert total_jobs >= 1000
            assert len(TENANTS) >= 2


# -- streamed result memory profile ------------------------------------------

def _expected_sha(keys: int, seed: int) -> str:
    import numpy as np

    rng = np.random.default_rng(seed)
    data = np.sort(rng.integers(0, 10**6, size=keys).astype(float))
    return hashlib.sha256(data.tobytes()).hexdigest()


_CLIENT_SCRIPT = """\
import asyncio, base64, hashlib, json, resource, sys, tracemalloc

src, port, mode, keys, seed = (sys.argv[1], int(sys.argv[2]), sys.argv[3],
                               int(sys.argv[4]), int(sys.argv[5]))
sys.path.insert(0, src)

from repro.service import ServiceClient


async def main():
    client = await ServiceClient.connect(port=port)
    job = {"kind": "sort", "n": 4, "keys": keys, "seed": seed}
    sha = hashlib.sha256()
    # Allocation high-water of the consumption path alone: ru_maxrss is
    # blind here because the interpreter+numpy import peak already maps
    # more than a small transfer ever touches again.
    tracemalloc.start()
    if mode == "inline":
        r = await client.submit_and_wait({**job, "return_keys": True})
        assert r["ok"], r
        sha.update(base64.b64decode(r["result"]["keys_b64"]))
    else:
        ack = await client.submit({**job, "stream": True})
        assert ack["ok"], ack
        async for chunk in client.iter_result(ack["job_id"]):
            sha.update(chunk.tobytes())
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    await client.close()
    print(json.dumps({"alloc_peak_kb": peak // 1024, "rss_peak_kb": rss_kb,
                      "sha256": sha.hexdigest()}))


asyncio.run(main())
"""


class TestStreamingMemory:
    """Streamed delivery bounds client memory; inline scales with M.

    Writes the ``streaming`` section of ``BENCH_service.json``.  Each
    consumption path runs in its own subprocess so ``ru_maxrss`` isolates
    that path's high-water mark; the benchmark compares the *delta* over
    the post-connect baseline.  At full size (M = 2^20 float64 keys) the
    streamed client's delta must stay within 25% of the inline client's;
    fast mode only requires it to be smaller.  Byte identity across both
    paths (and against ``np.sort``) is asserted in every mode.
    """

    def test_streamed_client_rss_bounded(self, fast_mode, bench_json,
                                         tmp_path):
        keys = (1 << 18) if fast_mode else (1 << 20)
        seed = 4242
        script = tmp_path / "stream_client.py"
        script.write_text(_CLIENT_SCRIPT, encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")

        async def serve_and_measure():
            svc = SortingService(max_queued=16)
            server = await svc.start_tcp()
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()

            def run_child(mode: str) -> dict:
                out = subprocess.run(
                    [sys.executable, str(script), src, str(port), mode,
                     str(keys), str(seed)],
                    capture_output=True, text=True, timeout=300)
                assert out.returncode == 0, out.stderr
                return json.loads(out.stdout.strip().splitlines()[-1])

            inline = await loop.run_in_executor(None, run_child, "inline")
            streamed = await loop.run_in_executor(None, run_child, "stream")
            ops = await ServiceClient.connect(port=port)
            await ops.drain()
            await ops.close()
            server.close()
            await server.wait_closed()
            await svc.aclose()
            return inline, streamed

        inline, streamed = asyncio.run(serve_and_measure())
        p_inline = max(1, inline["alloc_peak_kb"])
        p_stream = max(1, streamed["alloc_peak_kb"])
        ratio = p_stream / p_inline
        expected = _expected_sha(keys, seed)
        identical = (inline["sha256"] == expected
                     and streamed["sha256"] == expected)
        asserted = not fast_mode
        section = {
            "keys": keys,
            "bytes": keys * 8,
            "seed": seed,
            "inline": inline,
            "streamed": streamed,
            "peak_ratio": round(ratio, 4),
            "target_ratio": 0.25,
            "target_met": ratio <= 0.25,
            "asserted": asserted,
            "byte_identical": identical,
            "fast_mode": fast_mode,
        }
        bench_json("service", "streaming", section)
        print(f"\nstreaming M={keys}: inline peak {p_inline}kB vs "
              f"streamed {p_stream}kB (ratio {ratio:.3f})")
        assert identical, "streamed bytes diverged from the inline path"
        assert ratio < 1.0, (
            f"streamed client allocated as much as inline ({ratio:.2f})")
        if asserted:
            assert ratio <= 0.25, (
                f"streamed peak {p_stream}kB exceeds 25% of inline "
                f"{p_inline}kB at M={keys}")
