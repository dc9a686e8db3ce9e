"""Tests for the serving daemon: HTTP surface, lifecycle, fault paths.

The client side is a hand-rolled asyncio HTTP/1.1 helper (status line,
headers, Content-Length and chunked bodies) so the daemon is exercised
over a real TCP socket without any third-party HTTP dependency.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.errors import ExecutorBrokenError
from repro.executors import SerialExecutor
from repro.fleet import Fleet, Request
from repro.serve import ServingDaemon

RTT_RECORD = {"scenario": "ftth", "load": 0.40, "tag": "probe"}


class HttpClient:
    """A minimal HTTP/1.1 client over one keep-alive connection."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc_info):
        await self.close()

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.writer = None

    async def send_head(self, method, path, headers=()):
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self.writer.drain()

    async def request(self, method, path, body=None, headers=()):
        """One round-trip; returns (status, headers, body bytes)."""
        header_list = list(headers)
        payload = b""
        if body is not None:
            payload = body if isinstance(body, bytes) else body.encode("utf-8")
            if not any(name.lower() == "content-length" for name, _ in header_list):
                header_list.append(("Content-Length", str(len(payload))))
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}"]
        lines.extend(f"{name}: {value}" for name, value in header_list)
        self.writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload
        )
        await self.writer.drain()
        return await self.read_response()

    async def request_json(self, method, path, record=None, headers=()):
        body = json.dumps(record) if record is not None else None
        status, response_headers, raw = await self.request(
            method, path, body=body, headers=headers
        )
        return status, response_headers, json.loads(raw)

    async def read_response(self):
        status_line = await self.reader.readline()
        parts = status_line.decode("latin-1").split(maxsplit=2)
        assert parts and parts[0].startswith("HTTP/1.1"), status_line
        status = int(parts[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            body = b"".join([chunk async for chunk in self.iter_chunks(headers)])
        elif "content-length" in headers:
            body = await self.reader.readexactly(int(headers["content-length"]))
        else:
            body = await self.reader.read()
        return status, headers, body

    async def read_response_head(self):
        """Read only the status line + headers (for streamed bodies)."""
        status_line = await self.reader.readline()
        status = int(status_line.decode("latin-1").split(maxsplit=2)[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def iter_chunks(self, headers=None):
        """Decode a chunked response body chunk by chunk."""
        while True:
            size_line = await self.reader.readline()
            size = int(size_line.split(b";")[0].strip(), 16)
            if size == 0:
                await self.reader.readline()  # trailing CRLF
                return
            yield await self.reader.readexactly(size)
            await self.reader.readexactly(2)

    async def at_eof(self):
        return await self.reader.read(1) == b""


async def _within(client, awaitable, timeout_s=3.0):
    """``await awaitable``, failing after ``timeout_s`` instead of hanging.

    On a timeout the connection is aborted, so a daemon still waiting
    for the rest of a body is released and the test fails cleanly.
    """
    try:
        return await asyncio.wait_for(awaitable, timeout_s)
    except asyncio.TimeoutError:
        client.writer.transport.abort()
        raise


def run_with_daemon(test, **daemon_kwargs):
    """Run ``await test(daemon, client)`` against a live ephemeral daemon."""

    async def main():
        daemon_kwargs.setdefault("port", 0)
        daemon_kwargs.setdefault("coalesce_ms", 1.0)
        async with ServingDaemon(**daemon_kwargs) as daemon:
            async with HttpClient(daemon.host, daemon.port) as client:
                return await test(daemon, client)

    return asyncio.run(main())


class TestEndpoints:
    def test_healthz_reports_ok(self):
        async def scenario(daemon, client):
            return await client.request_json("GET", "/healthz")

        status, headers, payload = run_with_daemon(scenario)
        assert status == 200
        assert payload == {"status": "ok"}
        assert headers["connection"] == "keep-alive"

    def test_rtt_round_trip_is_bit_identical_to_fleet_serve(self):
        [reference] = Fleet().serve([Request.from_dict(RTT_RECORD)])

        async def scenario(daemon, client):
            return await client.request_json("POST", "/v1/rtt", RTT_RECORD)

        status, _, payload = run_with_daemon(scenario)
        assert status == 200
        assert payload["rtt_quantile_s"] == reference.rtt_quantile_s
        assert payload["tag"] == "probe"
        assert payload["method"] == reference.method
        assert payload["probability"] == reference.probability

    def test_keep_alive_serves_sequential_requests(self):
        async def scenario(daemon, client):
            first = await client.request_json("POST", "/v1/rtt", RTT_RECORD)
            second = await client.request_json("POST", "/v1/rtt", RTT_RECORD)
            return daemon, first, second

        daemon, (status1, _, one), (status2, _, two) = run_with_daemon(scenario)
        assert (status1, status2) == (200, 200)
        assert one["rtt_quantile_s"] == two["rtt_quantile_s"]
        assert two["cached"] is True
        assert daemon.connections_accepted == 1
        assert daemon.http_requests == 2

    def test_stats_exposes_fleet_and_server_counters(self):
        async def scenario(daemon, client):
            await client.request_json("POST", "/v1/rtt", RTT_RECORD)
            return await client.request_json("GET", "/stats")

        status, _, payload = run_with_daemon(scenario)
        assert status == 200
        assert payload["fleet"]["requests"] == 1
        assert payload["fleet"]["coalesced_batches"] == 1
        assert payload["cache_entries"] == 1
        server = payload["server"]
        assert server["draining"] is False
        assert server["http_requests"] == 2  # the /v1/rtt call and this one
        assert server["connections_open"] == 1
        assert server["uptime_s"] >= 0.0

    def test_batch_streams_answers_in_input_order(self):
        records = [
            {"scenario": "ftth", "load": 0.40, "tag": "a"},
            {"scenario": "paper-dsl", "load": 0.30, "tag": "b"},
            {"scenario": "ftth", "load": 0.40, "tag": "c"},
            {"scenario": "ftth", "load": 0.35, "tag": "d"},
        ]
        reference = Fleet().serve([Request.from_dict(r) for r in records])

        async def scenario(daemon, client):
            body = "".join(json.dumps(r) + "\n" for r in records)
            status, headers, raw = await client.request("POST", "/v1/batch", body)
            return status, headers, raw

        status, headers, raw = run_with_daemon(scenario, max_batch=2)
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        answers = [json.loads(line) for line in raw.decode().splitlines()]
        assert [a["tag"] for a in answers] == ["a", "b", "c", "d"]
        assert [a["rtt_quantile_s"] for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]

    def test_batch_accepts_a_chunked_request_body(self):
        async def scenario(daemon, client):
            await client.send_head(
                "POST", "/v1/batch", [("Transfer-Encoding", "chunked")]
            )
            line = (json.dumps(RTT_RECORD) + "\n").encode()
            client.writer.write(
                f"{len(line):x}\r\n".encode() + line + b"\r\n" + b"0\r\n\r\n"
            )
            await client.writer.drain()
            return await client.read_response()

        status, _, raw = run_with_daemon(scenario)
        assert status == 200
        [answer] = [json.loads(line) for line in raw.decode().splitlines()]
        assert answer["tag"] == "probe"


class TestErrorResponses:
    def test_unknown_endpoint_is_a_structured_404(self):
        async def scenario(daemon, client):
            status, _, payload = await client.request_json("GET", "/nope")
            return status, payload, await client.at_eof()

        status, payload, closed = run_with_daemon(scenario)
        assert status == 404
        assert payload["type"] == "_HttpError"
        assert "/nope" in payload["error"]
        assert closed  # an unroutable request closes the connection

    def test_wrong_method_is_a_405(self):
        async def scenario(daemon, client):
            status, _, payload = await client.request_json("GET", "/v1/rtt")
            return status, payload

        status, payload = run_with_daemon(scenario)
        assert status == 405
        assert "POST" in payload["error"]

    def test_invalid_json_body_is_a_400_and_keeps_the_connection(self):
        async def scenario(daemon, client):
            status, _, raw = await client.request("POST", "/v1/rtt", "not json!")
            error = json.loads(raw)
            # The connection survives a client error: reuse it.
            retry_status, _, answer = await client.request_json(
                "POST", "/v1/rtt", RTT_RECORD
            )
            return status, error, retry_status, answer

        status, error, retry_status, answer = run_with_daemon(scenario)
        assert status == 400
        assert error["type"] == "ReproError"
        assert "not valid JSON" in error["error"]
        assert retry_status == 200
        assert answer["tag"] == "probe"

    def test_out_of_range_request_is_a_400_parameter_error(self):
        async def scenario(daemon, client):
            return await client.request_json(
                "POST", "/v1/rtt", {"scenario": "ftth", "load": 1.5}
            )

        status, _, payload = run_with_daemon(scenario)
        assert status == 400
        assert payload["type"] == "ParameterError"

    def test_unknown_scenario_is_a_400(self):
        async def scenario(daemon, client):
            return await client.request_json(
                "POST", "/v1/rtt", {"scenario": "no-such-preset", "load": 0.4}
            )

        status, _, payload = run_with_daemon(scenario)
        assert status == 400
        assert "no-such-preset" in payload["error"]

    def test_missing_body_framing_is_a_411(self):
        async def scenario(daemon, client):
            await client.send_head("POST", "/v1/rtt")
            return await client.read_response()

        status, _, raw = run_with_daemon(scenario)
        assert status == 411
        assert "Content-Length" in json.loads(raw)["error"]

    def test_batch_parse_error_arrives_as_an_inband_error_line(self):
        records = [RTT_RECORD, "garbage"]

        async def scenario(daemon, client):
            body = json.dumps(records[0]) + "\n" + "{broken\n"
            status, headers, raw = await client.request("POST", "/v1/batch", body)
            return daemon, status, raw, await client.at_eof()

        daemon, status, raw, closed = run_with_daemon(scenario)
        # The head is already streaming when the bad line is hit: the
        # status stays 200 and the failure arrives as the last line.
        assert status == 200
        last = json.loads(raw.decode().splitlines()[-1])
        assert last["status"] == 400
        assert "request line 2" in last["error"]
        assert closed
        assert daemon.http_errors == 1

    def test_malformed_request_line_is_a_400(self):
        async def scenario(daemon, client):
            client.writer.write(b"COMPLETE NONSENSE\r\n\r\n")
            await client.writer.drain()
            return await client.read_response()

        status, _, raw = run_with_daemon(scenario)
        assert status == 400
        assert json.loads(raw)["type"] == "_HttpError"

    def test_stray_blank_lines_before_a_request_are_skipped(self):
        async def scenario(daemon, client):
            client.writer.write(b"\r\n\n\r\n")
            status, _, payload = await client.request_json("GET", "/healthz")
            return daemon, status, payload

        daemon, status, payload = run_with_daemon(scenario)
        assert status == 200
        assert payload == {"status": "ok"}
        assert daemon.http_errors == 0

    def test_a_flood_of_blank_lines_is_a_counted_400(self):
        async def scenario(daemon, client):
            client.writer.write(b"\r\n" * 5000)
            status, _, raw = await client.request("GET", "/healthz")
            return daemon, status, raw, await client.at_eof()

        daemon, status, raw, closed = run_with_daemon(scenario)
        assert status == 400
        assert "blank lines" in json.loads(raw)["error"]
        assert closed
        assert daemon.http_errors == 1

    @pytest.mark.parametrize("size", [b"-5", b"0x5", b"+5", b"1_0", b"5 5"])
    def test_a_signed_or_non_hex_chunk_size_is_a_counted_400(self, size):
        async def scenario(daemon, client):
            await client.send_head(
                "POST", "/v1/rtt", [("Transfer-Encoding", "chunked")]
            )
            client.writer.write(size + b"\r\nhello\r\n0\r\n\r\n")
            await client.writer.drain()
            status, _, raw = await _within(client, client.read_response())
            return daemon, status, json.loads(raw)

        daemon, status, payload = run_with_daemon(scenario)
        assert status == 400
        assert payload["error"] == "malformed chunk size"
        assert daemon.http_errors == 1

    def test_an_oversized_chunk_is_refused_before_it_is_buffered(self):
        # The chunk declares 64 MiB and 2 MiB of it arrive: the 1 MiB
        # /v1/rtt cap is crossed within the first pieces, so the 413
        # comes at once instead of after the rest of the chunk.
        async def scenario(daemon, client):
            await client.send_head(
                "POST", "/v1/rtt", [("Transfer-Encoding", "chunked")]
            )
            client.writer.write(f"{64 << 20:x}\r\n".encode() + b"x" * (2 << 20))
            response = asyncio.ensure_future(client.read_response())
            try:
                await client.writer.drain()
            except ConnectionError:
                pass  # the daemon may close before the 2 MiB are sent
            status, _, raw = await _within(client, response)
            return daemon, status, json.loads(raw)

        daemon, status, payload = run_with_daemon(scenario)
        assert status == 413
        assert "too large" in payload["error"]
        assert daemon.http_errors == 1

    def test_chunked_bodies_are_read_in_bounded_pieces(self):
        async def main():
            reader = asyncio.StreamReader(limit=1 << 24)
            reader.feed_data(f"{300_000:x}\r\n".encode() + b"y" * 300_000 + b"\r\n0\r\n\r\n")
            reader.feed_eof()
            headers = {"transfer-encoding": "chunked"}
            return [piece async for piece in ServingDaemon._iter_body(reader, headers)]

        pieces = asyncio.run(main())
        assert b"".join(pieces) == b"y" * 300_000
        assert max(len(piece) for piece in pieces) <= 1 << 16


class _SlowExecutor(SerialExecutor):
    def __init__(self, delay_s=0.05):
        self.delay_s = delay_s

    async def run_async(self, plans):
        await asyncio.sleep(self.delay_s)
        return await super().run_async(plans)


class _GatedExecutor(SerialExecutor):
    """Serial executor whose first execution waits for ``gate`` to be set."""

    def __init__(self, gate):
        self.gate = gate
        self.runs = 0

    async def run_async(self, plans):
        self.runs += 1
        if self.runs == 1:
            await self.gate.wait()
        return await super().run_async(plans)


class _BreakOnceExecutor(SerialExecutor):
    def __init__(self):
        self.runs = 0

    async def run_async(self, plans):
        self.runs += 1
        if self.runs == 1:
            raise ExecutorBrokenError("worker killed under the batch")
        return await super().run_async(plans)


class TestLifecycle:
    def test_ephemeral_port_is_published_after_start(self):
        async def main():
            async with ServingDaemon(port=0) as daemon:
                assert daemon.port != 0
                return daemon.port

        assert asyncio.run(main()) > 0

    def test_graceful_drain_answers_the_inflight_request(self):
        async def main():
            daemon = ServingDaemon(
                port=0, coalesce_ms=1.0, executor=_SlowExecutor()
            )
            await daemon.start()
            client = HttpClient(daemon.host, daemon.port)
            async with client:
                await client.send_head(
                    "POST", "/v1/rtt",
                    [("Content-Length", str(len(json.dumps(RTT_RECORD))))],
                )
                client.writer.write(json.dumps(RTT_RECORD).encode())
                await client.writer.drain()
                await asyncio.sleep(0.02)  # let the window take flight
                shutdown = asyncio.ensure_future(daemon.shutdown())
                status, _, raw = await client.read_response()
                await shutdown
                return daemon, status, json.loads(raw)

        daemon, status, payload = asyncio.run(main())
        assert status == 200
        assert payload["tag"] == "probe"
        assert daemon.draining is True

    def test_healthz_reports_draining_during_shutdown(self):
        async def main():
            daemon = ServingDaemon(port=0, coalesce_ms=1.0)
            await daemon.start()
            async with HttpClient(daemon.host, daemon.port) as client:
                # Flip the draining flag as shutdown would, while the
                # already-accepted connection is still readable.
                daemon._draining = True
                status, _, payload = await client.request_json("GET", "/healthz")
            daemon._draining = False
            await daemon.shutdown()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 503
        assert payload == {"status": "draining"}

    def test_sigterm_drains_and_returns(self):
        async def main():
            daemon = ServingDaemon(port=0, coalesce_ms=1.0)
            ready = asyncio.Event()
            runner = asyncio.ensure_future(daemon.run(ready=ready))
            await ready.wait()
            async with HttpClient(daemon.host, daemon.port) as client:
                status, _, payload = await client.request_json(
                    "POST", "/v1/rtt", RTT_RECORD
                )
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(runner, timeout=10.0)
            return daemon, status, payload

        daemon, status, payload = asyncio.run(main())
        assert status == 200
        assert payload["tag"] == "probe"
        assert daemon.draining is True

    def test_new_connections_are_refused_after_drain(self):
        async def main():
            daemon = ServingDaemon(port=0, coalesce_ms=1.0)
            await daemon.start()
            host, port = daemon.host, daemon.port
            await daemon.shutdown()
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except ConnectionError:
                return True
            writer.close()
            return False

        assert asyncio.run(main()) is True

    def test_survives_a_killed_worker_via_window_retry(self):
        executor = _BreakOnceExecutor()

        async def scenario(daemon, client):
            return await client.request_json("POST", "/v1/rtt", RTT_RECORD)

        status, _, payload = run_with_daemon(scenario, executor=executor)
        assert status == 200
        assert payload["tag"] == "probe"
        assert executor.runs == 2

    def test_persistent_executor_failure_is_a_500(self):
        class _AlwaysBroken(SerialExecutor):
            async def run_async(self, plans):
                raise ExecutorBrokenError("pool keeps dying")

        async def scenario(daemon, client):
            status, _, payload = await client.request_json(
                "POST", "/v1/rtt", RTT_RECORD
            )
            return status, payload, await client.at_eof()

        status, payload, closed = run_with_daemon(
            scenario, executor=_AlwaysBroken()
        )
        assert status == 500
        assert payload["type"] == "ExecutorBrokenError"
        assert closed

    def test_warm_cache_round_trip(self, tmp_path):
        cache_file = tmp_path / "warm.json"

        async def serve_once(daemon, client):
            status, _, payload = await client.request_json(
                "POST", "/v1/rtt", RTT_RECORD
            )
            return daemon, status, payload

        daemon, status, first = run_with_daemon(
            serve_once, warm_cache=cache_file
        )
        assert status == 200
        assert daemon.warm_loaded == 0
        assert cache_file.exists()  # persisted during shutdown

        daemon, status, second = run_with_daemon(
            serve_once, warm_cache=cache_file
        )
        assert status == 200
        assert daemon.warm_loaded == 1
        assert second["cached"] is True
        assert second["rtt_quantile_s"] == first["rtt_quantile_s"]

    def test_double_start_is_rejected(self):
        async def main():
            async with ServingDaemon(port=0) as daemon:
                await daemon.start()

        from repro.errors import ReproError

        with pytest.raises(ReproError, match="already started"):
            asyncio.run(main())


class TestCoalescingOverHttp:
    def test_misses_arriving_during_a_window_share_the_next_one(self):
        async def main():
            executor = _GatedExecutor(asyncio.Event())
            daemon = ServingDaemon(
                port=0, coalesce_ms=60_000.0, max_batch=8, executor=executor
            )
            async with daemon:
                coalescer = daemon.coalescer

                async def one(record):
                    async with HttpClient(daemon.host, daemon.port) as client:
                        return await client.request_json(
                            "POST", "/v1/rtt", record
                        )

                async def until(condition):
                    while not condition():
                        await asyncio.sleep(0.001)

                first = asyncio.ensure_future(
                    one({"scenario": "ftth", "load": 0.40, "tag": "x"})
                )
                try:
                    # An idle daemon flushes the lone miss at once; its
                    # window then executes until the gate opens.
                    await asyncio.wait_for(
                        until(lambda: coalescer.inflight_windows == 1), 10.0
                    )
                    held = [
                        asyncio.ensure_future(one(record))
                        for record in (
                            {"scenario": "paper-dsl", "load": 0.30, "tag": "y"},
                            {"scenario": "ftth", "load": 0.35, "tag": "z"},
                        )
                    ]
                    await asyncio.wait_for(
                        until(lambda: coalescer.pending == 2), 10.0
                    )
                    assert coalescer.inflight_windows == 1
                finally:
                    executor.gate.set()  # never leave the drain hanging
                results = await asyncio.wait_for(
                    asyncio.gather(first, *held), 10.0
                )
                return daemon, executor, results

        daemon, executor, results = asyncio.run(main())
        assert all(status == 200 for status, _, _ in results)
        assert [payload["tag"] for _, _, payload in results] == ["x", "y", "z"]
        stats = daemon.fleet.stats
        # Both misses that arrived while window 1 executed were held and
        # flushed together as one stacked window when it finished.
        assert executor.runs == 2
        assert stats.coalesced_batches == 2
        assert stats.coalesced_requests == 3

    def test_identical_concurrent_misses_single_flight(self):
        async def main():
            daemon = ServingDaemon(
                port=0, coalesce_ms=0.0, max_batch=1,
                executor=_SlowExecutor(delay_s=0.05),
            )
            async with daemon:
                async def one():
                    async with HttpClient(daemon.host, daemon.port) as client:
                        return await client.request_json(
                            "POST", "/v1/rtt", RTT_RECORD
                        )

                first = asyncio.ensure_future(one())
                await asyncio.sleep(0.02)  # window 1 is in flight
                second = asyncio.ensure_future(one())
                results = await asyncio.gather(first, second)
                return daemon, results

        daemon, ((s1, _, a1), (s2, _, a2)) = asyncio.run(main())
        assert (s1, s2) == (200, 200)
        assert a1["rtt_quantile_s"] == a2["rtt_quantile_s"]
        assert daemon.fleet.stats.evaluations == 1
        assert daemon.fleet.stats.deduped_inflight == 1


class TestWorkerMode:
    """The daemon as a plan-executing worker (``--worker-mode``)."""

    @staticmethod
    def _plan(load=0.40):
        batch = Fleet()._plan_batch([Request("ftth", downlink_load=load)])
        return batch.eval_plans[0]

    def test_plan_round_trip_is_bit_identical(self):
        from repro.core.rtt import execute_plan
        from repro.serve import wire

        plan = self._plan()
        reference = execute_plan(plan)

        async def scenario(daemon, client):
            status, headers, body = await client.request(
                "POST",
                "/v1/plan",
                body=wire.encode_plan(plan),
                headers=[("Content-Type", "application/octet-stream")],
            )
            # The connection stays keep-alive: a second plan reuses it.
            status2, _, body2 = await client.request(
                "POST",
                "/v1/plan",
                body=wire.encode_plan(plan),
                headers=[("Content-Type", "application/octet-stream")],
            )
            return daemon, status, headers, body, status2, body2

        daemon, status, headers, body, status2, body2 = run_with_daemon(
            scenario, worker_mode=True
        )
        assert status == status2 == 200
        assert headers["content-type"] == "application/octet-stream"
        assert headers["connection"] == "keep-alive"
        result = wire.decode_result(body)
        assert result.values == reference.values
        assert result.indices == reference.indices
        assert wire.decode_result(body2).values == reference.values
        assert daemon.plans_served == 2
        assert daemon.connections_accepted == 1

    def test_malformed_frame_gets_a_400_error_frame(self):
        from repro.errors import WireFormatError
        from repro.serve import wire

        async def scenario(daemon, client):
            status, headers, body = await client.request(
                "POST", "/v1/plan", body=b"this is not a frame"
            )
            # The connection survives the bad frame.
            ok_status, _, _ = await client.request_json("GET", "/healthz")
            return daemon, status, headers, body, ok_status

        daemon, status, headers, body, ok_status = run_with_daemon(
            scenario, worker_mode=True
        )
        assert status == 400
        assert headers["content-type"] == "application/octet-stream"
        with pytest.raises(WireFormatError):
            wire.decode_result(body)
        assert ok_status == 200
        assert daemon.plans_served == 0
        assert daemon.http_errors == 1

    def test_typed_plan_error_comes_back_as_a_200_error_frame(self):
        from repro.core.rtt import EvalPlan, model_params
        from repro.errors import ParameterError
        from repro.scenarios import get_scenario
        from repro.serve import wire

        bad = EvalPlan(
            probabilities=(0.99999,),
            method="inversion",
            indices=(0,),
            model_params=(
                {
                    **model_params(get_scenario("paper-dsl").model_at_load(0.4)),
                    "num_gamers": -1.0,
                },
            ),
        )

        async def scenario(daemon, client):
            return await client.request(
                "POST", "/v1/plan", body=wire.encode_plan(bad)
            )

        status, headers, body = run_with_daemon(scenario, worker_mode=True)
        assert status == 200
        assert headers["content-type"] == "application/octet-stream"
        with pytest.raises(ParameterError):
            wire.decode_result(body)

    def test_plan_endpoint_is_404_without_worker_mode(self):
        from repro.serve import wire

        plan = self._plan()

        async def scenario(daemon, client):
            return await client.request(
                "POST", "/v1/plan", body=wire.encode_plan(plan)
            )

        status, headers, _ = run_with_daemon(scenario)  # no worker_mode
        assert status == 404
        assert "json" in headers["content-type"]

    def test_stats_reports_worker_mode_and_plans_served(self):
        from repro.serve import wire

        plan = self._plan()

        async def scenario(daemon, client):
            await client.request(
                "POST", "/v1/plan", body=wire.encode_plan(plan)
            )
            return await client.request_json("GET", "/stats")

        _, _, payload = run_with_daemon(scenario, worker_mode=True)
        assert payload["server"]["worker_mode"] is True
        assert payload["server"]["plans_served"] == 1

    def test_stats_reports_per_worker_hosts_behind_a_remote_executor(self):
        from repro.executors import RemoteExecutor

        async def main():
            executor = RemoteExecutor("127.0.0.1:19101,127.0.0.1:19102")
            try:
                async with ServingDaemon(
                    port=0, coalesce_ms=1.0, executor=executor
                ) as daemon:
                    async with HttpClient(daemon.host, daemon.port) as client:
                        return await client.request_json("GET", "/stats")
            finally:
                executor.close()

        _, _, payload = asyncio.run(main())
        assert set(payload["worker_hosts"]) == {
            "127.0.0.1:19101",
            "127.0.0.1:19102",
        }
        for entry in payload["worker_hosts"].values():
            assert entry["plans"] == 0 and not entry["down"]
