"""Result streaming: byte identity, checksums, flow control, lifecycle.

The contract under test: a ``stream: true`` sort delivers *exactly* the
bytes the inline paths deliver — chunked into binary frames, checksummed,
window-throttled — and the server lets go of the streamed array once the
stream ends (consumed, aborted, or stalled).
"""

import asyncio
import base64
import gc
import weakref

import numpy as np
import pytest

from repro.service import (
    ServiceClient,
    SortingService,
    StreamChecksumError,
    frame_checksum,
    plan_frames,
    verify_frame,
)


def _expected(seed: int, keys: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.integers(0, 10**6, size=keys).astype(float))


async def _start(svc: SortingService):
    server = await svc.start_tcp()
    return server, server.sockets[0].getsockname()[1]


async def _stop(svc, server, *clients):
    for c in clients:
        await c.close()
    server.close()
    await server.wait_closed()
    await svc.aclose()


class TestFrameHelpers:
    def test_plan_frames_partitions_exactly(self):
        assert plan_frames(10, 4) == [(0, 4), (4, 4), (8, 2)]
        assert plan_frames(4, 4) == [(0, 4)]
        assert plan_frames(0, 4) == [(0, 0)]
        with pytest.raises(ValueError):
            plan_frames(10, 0)
        # Every key appears in exactly one frame, in order.
        frames = plan_frames(100_001, 4096)
        assert frames[0][0] == 0
        assert sum(length for _start, length in frames) == 100_001
        assert all(frames[i][0] + frames[i][1] == frames[i + 1][0]
                   for i in range(len(frames) - 1))

    def test_checksum_round_trip_and_tamper(self):
        chunk = np.arange(1000, dtype=np.float64)
        count, total = frame_checksum(chunk)
        msg = {"seq": 0, "count": count, "sum": total}
        verify_frame(msg, chunk)  # identical buffer -> exact match
        with pytest.raises(StreamChecksumError):
            verify_frame(msg, chunk[:-1])  # dropped element
        tampered = chunk.copy()
        tampered[500] += 1.0
        with pytest.raises(StreamChecksumError):
            verify_frame(msg, tampered)  # flipped value

    def test_empty_frame_checksums(self):
        count, total = frame_checksum(np.empty(0, dtype=np.float64))
        assert (count, total) == (0, 0.0)


class TestStreamedResults:
    def test_streamed_bytes_identical_to_inline(self):
        keys, seed = 20_000, 42

        async def main():
            svc = SortingService(stream_chunk=4096)
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            job = {"kind": "sort", "n": 4, "faults": [3], "keys": keys,
                   "seed": seed}
            # Inline baseline: the whole array as base64 in one result.
            inline = await client.submit_and_wait({**job, "return_keys": True})
            assert inline["ok"]
            baseline = np.frombuffer(
                base64.b64decode(inline["result"]["keys_b64"]),
                dtype=np.float64)
            # Streamed: checksummed binary frames.
            ack = await client.submit({**job, "stream": True})
            assert ack["ok"], ack
            chunks = [c async for c in client.iter_result(ack["job_id"])]
            streamed = np.concatenate(chunks)
            header = client.stream_header(ack["job_id"])
            summary = client.stream_summary(ack["job_id"])
            assert summary["ok"] and summary["result"]["verified"]
            assert len(chunks) == summary["frames"] == -(-keys // 4096)
            assert streamed.tobytes() == baseline.tobytes()
            assert streamed.tobytes() == _expected(seed, keys).tobytes()
            stats = await client.stats()
            assert stats["streams"]["jobs"] == 1
            assert stats["streams"]["frames"] == len(chunks)
            assert stats["streams"]["open"] == 0
            await _stop(svc, server, client)
            assert header is None or header["count"] == keys

        asyncio.run(main())

    def test_tiny_stream_round_trips(self):
        # 16 keys = 128 bytes: one short frame, still checksummed.
        async def main():
            svc = SortingService()
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ack = await client.submit(
                {"kind": "sort", "n": 3, "keys": 16, "seed": 7,
                 "stream": True})
            assert ack["ok"]
            streamed = await client.collect_stream(ack["job_id"])
            assert client.stream_header(ack["job_id"]) is None  # consumed
            summary = client.stream_summary(ack["job_id"])
            assert summary["ok"]
            assert streamed.tobytes() == _expected(7, 16).tobytes()
            await _stop(svc, server, client)

        asyncio.run(main())

    def test_streamed_and_plain_jobs_share_a_batch(self):
        # A batch mixing streamed and non-streamed compatible sorts must
        # deliver both correctly (one executor trip, two delivery paths).
        async def main():
            svc = SortingService(batch_max=4, stream_chunk=2048)
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            job = {"kind": "sort", "n": 4, "faults": [5], "keys": 6000}
            plain = await client.submit({**job, "seed": 1})
            stream = await client.submit({**job, "seed": 2, "stream": True})
            assert plain["ok"] and stream["ok"]
            streamed = await client.collect_stream(stream["job_id"])
            result = await client.result(plain["job_id"])
            assert result["ok"] and result["result"]["verified"]
            assert streamed.tobytes() == _expected(2, 6000).tobytes()
            await _stop(svc, server, client)

        asyncio.run(main())

    def test_failing_streamed_job_raises_stream_error(self):
        from repro.service import StreamError

        async def main():
            svc = SortingService()
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            # A pre-stream executor failure answers with a plain failed
            # result; the stream consumer must surface it as StreamError.
            import repro.service.server as server_mod

            def boom(specs):
                raise RuntimeError("executor exploded")

            orig = server_mod.run_job_batch
            server_mod.run_job_batch = boom
            try:
                ack = await client.submit(
                    {"kind": "sort", "n": 4, "keys": 8192, "stream": True})
                assert ack["ok"]
                with pytest.raises(StreamError):
                    async for _chunk in client.iter_result(ack["job_id"]):
                        pass
            finally:
                server_mod.run_job_batch = orig
            await _stop(svc, server, client)

        asyncio.run(main())


class TestFlowControlAndLifecycle:
    def test_stalled_consumer_aborts_stream_and_sweeps(self):
        # The client's reader enqueues frames but nobody iterates, so no
        # acks flow: the server must stall at its window, abort after
        # stream_ack_timeout, answer a retryable result_end, and close
        # the stream.
        from repro.service import StreamError

        async def main():
            svc = SortingService(stream_chunk=1024, stream_window=2,
                                 stream_ack_timeout=0.3)
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ack = await client.submit(
                {"kind": "sort", "n": 4, "keys": 50_000, "stream": True})
            assert ack["ok"]
            await asyncio.sleep(1.0)  # > ack timeout, consuming nothing
            with pytest.raises(StreamError) as err:
                async for _chunk in client.iter_result(ack["job_id"]):
                    pass  # the queued window frames, then the abort
            assert err.value.retryable
            assert err.value.message["error"] == "stream_stalled"
            stats = await client.stats()
            assert stats["streams"]["aborted"] == 1
            assert stats["streams"]["open"] == 0
            await _stop(svc, server, client)

        asyncio.run(main())

    def test_disconnect_mid_stream_releases_leases(self):
        # Kill the client connection between frames: the server must
        # abort the stream, drop its state, and still drain to zero.
        async def main():
            svc = SortingService(stream_chunk=1024, stream_window=1,
                                 stream_ack_timeout=5.0)
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ack = await client.submit(
                {"kind": "sort", "n": 4, "keys": 50_000, "stream": True})
            assert ack["ok"]
            # Wait for the stream to exist server-side, then vanish.
            for _ in range(500):
                if svc.stats()["streams"]["open"]:
                    break
                await asyncio.sleep(0.01)
            await client.close()
            monitor = await ServiceClient.connect(port=port)
            summary = await monitor.drain()
            assert summary["completed"] >= 1
            assert svc.stats()["streams"]["open"] == 0
            await _stop(svc, server, monitor)

        asyncio.run(main())

    def test_drain_during_live_stream_loses_nothing(self):
        # A drain sent from a second connection while a 2^20-key stream
        # is mid-flight must wait for it: the bytes arrive whole, the
        # drain reply counts the job, and a late submit is refused.
        keys, seed = 1 << 20, 11

        async def main():
            svc = SortingService()
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ops = await ServiceClient.connect(port=port)
            late = await ServiceClient.connect(port=port)
            job = {"kind": "sort", "n": 5, "faults": [3, 12, 21],
                   "keys": keys, "seed": seed, "kernels": "compiled",
                   "stream": True}
            ack = await client.submit(job)
            assert ack["ok"], ack
            chunks, drain = [], None
            async for chunk in client.iter_result(ack["job_id"]):
                chunks.append(chunk)
                if drain is None:
                    drain = asyncio.create_task(ops.drain())
                    for _ in range(5000):
                        if svc.draining:
                            break
                        await asyncio.sleep(0.001)
                    assert svc.draining
                    refused = await late.submit({**job, "seed": seed + 1})
                    assert refused == {"ok": False, "op": "submit",
                                       "id": refused["id"],
                                       "error": "draining"}
                    assert not drain.done()  # held open by the stream
            summary = await asyncio.wait_for(drain, 60)
            assert summary["ok"] and summary["op"] == "drained"
            assert summary["completed"] == 1 and summary["failed"] == 0
            assert len(chunks) > 1
            streamed = np.concatenate(chunks)
            assert streamed.tobytes() == _expected(seed, keys).tobytes()
            assert client.stream_summary(ack["job_id"])["result"]["verified"]
            await _stop(svc, server, client, ops, late)

        asyncio.run(main())

    def test_window_meters_consumption(self):
        # With window=1 and a consumer that acks one frame at a time, the
        # stream still completes exactly (ordering + completeness).
        async def main():
            svc = SortingService(stream_chunk=512, stream_window=1)
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ack = await client.submit(
                {"kind": "sort", "n": 3, "keys": 5000, "stream": True})
            assert ack["ok"]
            total = 0
            async for chunk in client.iter_result(ack["job_id"]):
                total += chunk.size
                await asyncio.sleep(0.002)  # slow consumer
            assert total == 5000
            assert client.stream_summary(ack["job_id"])["ok"]
            await _stop(svc, server, client)

        asyncio.run(main())

    def test_server_drops_streamed_array_after_delivery(self, monkeypatch):
        # Once a stream has been consumed and the job has left the
        # in-flight set, nothing on the server may still reference the
        # streamed array — in particular not the idle dispatcher.
        import repro.service.server as server_mod

        refs = []
        real = server_mod.run_job_batch

        def spy(specs):
            payloads = real(specs)
            for spec, payload in zip(specs, payloads):
                if spec.stream and payload["ok"]:
                    refs.append(weakref.ref(payload["result"]["sorted_keys"]))
            return payloads

        monkeypatch.setattr(server_mod, "run_job_batch", spy)

        async def main():
            svc = SortingService(stream_chunk=4096)
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ack = await client.submit(
                {"kind": "sort", "n": 4, "keys": 20_000, "seed": 5,
                 "stream": True})
            assert ack["ok"]
            streamed = await client.collect_stream(ack["job_id"])
            assert streamed.tobytes() == _expected(5, 20_000).tobytes()
            for _ in range(500):
                if svc.stats()["in_flight"] == 0:
                    break
                await asyncio.sleep(0.01)
            assert svc.stats()["in_flight"] == 0
            gc.collect()
            assert len(refs) == 1
            assert refs[0]() is None, "server still holds the streamed array"
            await _stop(svc, server, client)

        asyncio.run(main())


class TestValidation:
    @pytest.mark.parametrize("job,field", [
        ({"kind": "plan", "n": 4, "stream": True}, "stream"),
        ({"kind": "chaos", "return_keys": True}, "return_keys"),
        ({"kind": "sort", "stream": True, "return_keys": True}, "exclusive"),
        ({"kind": "sort", "stream": "yes"}, "type"),
    ])
    def test_bad_stream_requests_rejected(self, job, field):
        async def main():
            svc = SortingService()
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ack = await client.submit(job)
            assert not ack["ok"]
            assert ack["error"] == "bad_request"
            await _stop(svc, server, client)

        asyncio.run(main())

    def test_legacy_transport_field_gets_binary_frames(self):
        # Older clients could ask for a shared-memory transport; the
        # server ignores the field and streams binary frames, which every
        # client version reads.
        keys, seed = 20_000, 9

        async def main():
            svc = SortingService()
            server, port = await _start(svc)
            client = await ServiceClient.connect(port=port)
            ack = await client._request({
                "op": "submit", "tenant": "default", "transport": "shm",
                "job": {"kind": "sort", "n": 4, "keys": keys, "seed": seed,
                        "stream": True}})
            assert ack["ok"], ack
            chunks = [c async for c in client.iter_result(ack["job_id"])]
            assert client.stream_summary(ack["job_id"])["ok"]
            streamed = np.concatenate(chunks)
            assert streamed.tobytes() == _expected(seed, keys).tobytes()
            await _stop(svc, server, client)

        asyncio.run(main())
