"""Server end-to-end: dispatch, backpressure, drain, transports, signals.

In-process tests drive a :class:`SortingService` over a real TCP loopback
socket with :class:`ServiceClient` (the loop run via ``asyncio.run`` — the
suite has no async plugin).  Transport/signal tests spawn the actual
``repro serve`` CLI as a subprocess.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.service.server as server_mod
from repro.core.ftsort import fault_tolerant_sort
from repro.plancache import PLAN_CACHE
from repro.service import ServiceClient, SortingService
from repro.service.jobs import run_job_batch

REPO = Path(__file__).resolve().parents[2]


async def _start(svc: SortingService):
    server = await svc.start_tcp()
    return server, server.sockets[0].getsockname()[1]


async def _stop(svc, server, *clients):
    for c in clients:
        await c.close()
    server.close()
    await server.wait_closed()
    await svc.aclose()


class TestEndToEnd:
    def test_multi_tenant_sorts_verify_and_batch(self):
        async def main():
            svc = SortingService(batch_max=4)
            server, port = await _start(svc)
            a = await ServiceClient.connect(port=port)
            b = await ServiceClient.connect(port=port)
            acks = []
            for i in range(4):
                acks.append(await a.submit(
                    {"kind": "sort", "n": 4, "faults": [3, 9], "keys": 128,
                     "seed": i}, tenant="alpha"))
            for i in range(2):
                acks.append(await b.submit(
                    {"kind": "plan", "n": 5, "faults": [0, 7]}, tenant="beta"))
            assert all(ack["ok"] for ack in acks)
            assert len({ack["job_id"] for ack in acks}) == 6
            results = [await a.result(ack["job_id"]) for ack in acks[:4]]
            results += [await b.result(ack["job_id"]) for ack in acks[4:]]
            assert all(r["ok"] for r in results)
            assert all(r["result"]["verified"] for r in results[:4])
            assert all(r["result"]["mincut"] >= 1 for r in results[4:])
            stats = await a.stats()
            assert stats["completed"] == 6
            assert stats["tenants"]["alpha"]["completed"] == 4
            assert stats["tenants"]["beta"]["completed"] == 2
            # Repeated identical planning problems show up as per-tenant
            # plan-cache traffic (exact in the inline executor).
            assert stats["tenants"]["beta"]["plancache"]["hits"] >= 1
            await _stop(svc, server, a, b)
        asyncio.run(main())

    def test_compatible_jobs_batch_across_tenants(self, monkeypatch):
        # Hold the dispatcher at the gate while four compatible sorts from
        # two tenants queue up, then release: they run as one round-trip.
        gate = threading.Event()

        def gated(specs):
            gate.wait(timeout=30)
            return run_job_batch(specs)

        monkeypatch.setattr(server_mod, "run_job_batch", gated)

        async def main():
            svc = SortingService(batch_max=8)
            server, port = await _start(svc)
            a = await ServiceClient.connect(port=port)
            b = await ServiceClient.connect(port=port)
            # The gate job occupies the (single) executor thread first.
            pilot = await a.submit({"kind": "chaos", "index": 0}, tenant="x")
            while not svc.in_flight:
                await asyncio.sleep(0.005)
            job = {"kind": "sort", "n": 4, "faults": [3, 9], "keys": 64}
            acks = [await (a if i % 2 else b).submit(
                {**job, "seed": i}, tenant="ab"[i % 2])
                for i in range(4)]
            gate.set()
            assert (await a.result(pilot["job_id"]))["ok"]
            results = [await (a if i % 2 else b).result(acks[i]["job_id"])
                       for i in range(4)]
            assert {r["batched"] for r in results} == {4}
            stats = await a.stats()
            assert stats["batches"] == 2  # pilot alone + the fused four
            assert stats["batched_jobs"] == 3
            await _stop(svc, server, a, b)
        asyncio.run(main())

    def test_failing_job_is_a_result_not_a_disconnect(self):
        async def main():
            svc = SortingService()
            server, port = await _start(svc)
            c = await ServiceClient.connect(port=port)
            res = await c.submit_and_wait(
                {"kind": "chaos", "index": 0, "seed": 3}, tenant="t")
            assert res["ok"]
            assert (await c.ping())["op"] == "pong"
            await _stop(svc, server, c)
        asyncio.run(main())

    def test_malformed_requests_get_answers(self):
        # A client must not be able to write into the shared plan cache:
        # this entry, in the shape the removed ``orbit_push`` op took, is a
        # valid but non-minimal 3-cut plan for the Q5 faults {3, 12, 21}
        # (relabeled), whose minimum cut is 2.
        poison = {"n": 5, "canon": [0, 19, 28], "mincut": 3,
                  "psi": [[0, 1, 2]], "costs": [2]}
        job = {"kind": "sort", "n": 5, "faults": [3, 12, 21], "keys": 4096,
               "seed": 1}
        keys = np.random.default_rng(1).integers(0, 10**6, size=4096).astype(float)
        expected = fault_tolerant_sort(keys, 5, [3, 12, 21]).elapsed
        # Start empty, so the victim's job plans its fault set itself.
        PLAN_CACHE.clear()

        async def main():
            svc = SortingService()
            server, port = await _start(svc)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for raw in (b"this is not json\n",
                        b'{"op": "frobnicate", "id": "x"}\n',
                        b'{"op": "submit", "tenant": "t", "job": {"kind": "sort", "n": 99}}\n',
                        b'{"op": "submit", "tenant": "", "job": {"kind": "sort"}}\n',
                        b'{"op": "orbit_pull", "id": "p", "cursor": 0}\n',
                        b'{"op": "stream_done", "job_id": "j0"}\n',
                        json.dumps({"op": "orbit_push", "id": "q",
                                    "entries": [poison]}).encode() + b"\n"):
                writer.write(raw)
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["ok"] is False
                assert reply["error"] == "bad_request"
            writer.close()
            await writer.wait_closed()
            client = await ServiceClient.connect(port=port)
            result = await client.submit_and_wait(job, tenant="victim")
            assert result["ok"] and result["result"]["verified"]
            assert result["result"]["elapsed_sim"] == expected
            await _stop(svc, server, client)
        asyncio.run(main())


class TestBackpressure:
    def test_queue_full_carries_retry_after(self, monkeypatch):
        gate = threading.Event()

        def gated(specs):
            gate.wait(timeout=30)
            return run_job_batch(specs)

        monkeypatch.setattr(server_mod, "run_job_batch", gated)

        async def main():
            svc = SortingService(max_queued=64, max_queued_per_tenant=2,
                                 batch_max=1)
            server, port = await _start(svc)
            c = await ServiceClient.connect(port=port)
            job = {"kind": "chaos", "index": 0}
            first = await c.submit(job, tenant="t")
            assert first["ok"]
            for _ in range(100):  # wait for the dispatcher to take it
                if svc.in_flight:
                    break
                await asyncio.sleep(0.01)
            assert svc.in_flight == 1
            q1 = await c.submit(job, tenant="t")
            q2 = await c.submit(job, tenant="t")
            assert q1["ok"] and q2["ok"]
            rejected = await c.submit(job, tenant="t")
            assert rejected["ok"] is False
            assert rejected["error"] == "queue_full"
            assert rejected["scope"] == "tenant"
            assert rejected["retry_after_ms"] >= 50
            gate.set()
            for ack in (first, q1, q2):
                assert (await c.result(ack["job_id"]))["ok"]
            stats = await c.stats()
            assert stats["rejected"]["full"] == 1
            await _stop(svc, server, c)
        asyncio.run(main())

    def test_client_retry_rides_out_queue_full(self, monkeypatch):
        gate = threading.Event()

        def gated(specs):
            gate.wait(timeout=30)
            return run_job_batch(specs)

        monkeypatch.setattr(server_mod, "run_job_batch", gated)

        async def main():
            svc = SortingService(max_queued=1, max_queued_per_tenant=1,
                                 batch_max=1)
            server, port = await _start(svc)
            c = await ServiceClient.connect(port=port)
            svc._ema_run_ms = 1.0  # keep the retry sleeps short
            first = await c.submit({"kind": "chaos", "index": 0}, tenant="t")
            while not svc.in_flight:
                await asyncio.sleep(0.005)
            blocker = await c.submit({"kind": "chaos", "index": 1}, tenant="t")
            assert blocker["ok"]
            retrying = asyncio.create_task(c.submit(
                {"kind": "chaos", "index": 2}, tenant="t", retry=True))
            await asyncio.sleep(0.05)
            assert not retrying.done()  # stuck behind the full queue
            gate.set()
            ack = await retrying
            assert ack["ok"]
            for a in (first, blocker, ack):
                assert (await c.result(a["job_id"]))["ok"]
            await _stop(svc, server, c)
        asyncio.run(main())


class TestDrain:
    def test_drain_finishes_queued_and_in_flight_jobs(self, monkeypatch):
        gate = threading.Event()

        def gated(specs):
            gate.wait(timeout=30)
            return run_job_batch(specs)

        monkeypatch.setattr(server_mod, "run_job_batch", gated)

        async def main():
            svc = SortingService(batch_max=1)
            server, port = await _start(svc)
            c = await ServiceClient.connect(port=port)
            ops = await ServiceClient.connect(port=port)
            acks = [await c.submit({"kind": "chaos", "index": i}, tenant="t")
                    for i in range(5)]
            assert all(a["ok"] for a in acks)
            drain_task = asyncio.create_task(ops.drain())
            await asyncio.sleep(0.05)
            assert not drain_task.done()  # barrier holds while jobs run
            late = await c.submit({"kind": "chaos", "index": 9}, tenant="t")
            assert late["error"] == "draining"
            gate.set()
            results = [await c.result(a["job_id"]) for a in acks]
            assert all(r["ok"] for r in results)  # zero loss
            drained = await drain_task
            assert drained["ok"] and drained["completed"] == 5
            assert svc.drained.is_set()
            await _stop(svc, server, c, ops)
        asyncio.run(main())

    def test_drain_flushes_plancache_metrics(self, tmp_path):
        async def main():
            out = tmp_path / "obs.json"
            svc = SortingService(obs_out=str(out))
            server, port = await _start(svc)
            c = await ServiceClient.connect(port=port)
            await c.submit_and_wait(
                {"kind": "plan", "n": 5, "faults": [3, 12]}, tenant="t")
            drained = await c.drain()
            assert drained["flushed"] == str(out)
            snapshot = json.loads(out.read_text())
            assert "plancache.hits" in snapshot["metrics"]["counters"]
            assert snapshot["service"]["tenants"]["t"]["completed"] == 1
            await _stop(svc, server, c)
        asyncio.run(main())


def _read_messages(stream, want_results, want_ops):
    """Collect pushed results and op replies from a server's output."""
    results, ops = [], {}
    while len(results) < want_results or not want_ops <= set(ops):
        line = stream.readline()
        assert line, "server output ended early"
        msg = json.loads(line)
        if msg.get("op") == "result":
            results.append(msg)
        else:
            ops[msg.get("op")] = msg
    return results, ops


class TestSubprocessTransports:
    def test_stdio_transport_round_trip(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--stdio"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, cwd=REPO, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        try:
            for i in range(3):
                proc.stdin.write(json.dumps({
                    "op": "submit", "id": f"s{i}", "tenant": "stdio",
                    "job": {"kind": "plan", "n": 5, "faults": [1, 6],
                            "seed": i},
                }) + "\n")
            proc.stdin.write('{"op": "drain", "id": "d"}\n')
            proc.stdin.flush()
            results, ops = _read_messages(proc.stdout, 3, {"drained"})
            assert all(r["ok"] for r in results)
            assert ops["drained"]["completed"] == 3
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigterm_drains_without_losing_jobs(self, tmp_path):
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port-file", str(port_file)],
            cwd=REPO, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() or not port_file.read_text().strip():
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            port = int(port_file.read_text())

            async def main():
                c = await ServiceClient.connect(port=port)
                acks = [await c.submit(
                    {"kind": "sort", "n": 5, "faults": [3, 12],
                     "keys": 4096, "seed": i}, tenant="sig")
                    for i in range(6)]
                assert all(a["ok"] for a in acks)
                proc.send_signal(signal.SIGTERM)
                # Every accepted job still completes and is delivered.
                results = [await c.result(a["job_id"]) for a in acks]
                assert all(r["ok"] and r["result"]["verified"]
                           for r in results)
                await c.close()

            asyncio.run(main())
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
