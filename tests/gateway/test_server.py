"""End-to-end gateway tests: core invoke path and the HTTP transport."""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time

import pytest

from repro.gateway import (
    AdmissionConfig,
    DegradationConfig,
    Gateway,
    GatewayConfig,
    GatewayServer,
    demo_platform,
)
from repro.gateway.server import MAX_BODY_BYTES
from repro.local import LocalPlatform, LocalPlatformConfig


def fast_platform() -> LocalPlatform:
    return demo_platform(LocalPlatformConfig(cold_start_seconds=0.0))


def make_gateway(platform: LocalPlatform, **kwargs) -> Gateway:
    defaults = dict(policy="faasbatch", window_seconds=0.005,
                    deadline_seconds=5.0,
                    degradation=DegradationConfig(enabled=False))
    defaults.update(kwargs)
    return Gateway(platform, GatewayConfig(**defaults))


def run_with_gateway(scenario, **gateway_kwargs):
    """Run async *scenario(gateway)* against a fresh demo stack."""

    async def main():
        platform = fast_platform()
        gateway = make_gateway(platform, **gateway_kwargs)
        try:
            return await scenario(gateway)
        finally:
            gateway.close()
            await asyncio.get_event_loop().run_in_executor(
                None, platform.shutdown)

    return asyncio.run(main())


class TestGatewayCore:
    def test_batched_requests_share_a_window(self):
        async def scenario(gateway):
            responses = await asyncio.gather(*[
                gateway.invoke("echo", {"n": i}) for i in range(8)])
            return responses, gateway.stats()

        responses, stats = run_with_gateway(scenario)
        assert [r.status for r in responses] == [200] * 8
        assert [r.body["result"]["n"] for r in responses] == list(range(8))
        assert all(r.mode == "batch" for r in responses)
        # All eight arrived inside one 5 ms window -> one group dispatch.
        assert stats["batches_dispatched"] == 1
        assert stats["batched_requests"] == 8

    def test_unknown_function_404(self):
        async def scenario(gateway):
            return await gateway.invoke("nope", {})

        response = run_with_gateway(scenario)
        assert response.status == 404

    def test_handler_error_500(self):
        async def scenario(gateway):
            return await gateway.invoke("fib", {"n": "not-a-number"})

        response = run_with_gateway(scenario)
        assert response.status == 500
        assert response.body["error"] == "ValueError"

    def test_inflight_cap_sheds_429(self):
        async def scenario(gateway):
            slow = asyncio.ensure_future(
                gateway.invoke("sleep", {"ms": 200}))
            await asyncio.sleep(0.02)  # let it be admitted
            shed = await gateway.invoke("echo", {})
            slow_response = await slow
            return shed, slow_response

        shed, slow_response = run_with_gateway(
            scenario, admission=AdmissionConfig(max_inflight=1))
        assert shed.status == 429
        assert shed.retry_after_seconds is not None
        assert slow_response.status == 200

    def test_queue_depth_sheds_newest(self):
        async def scenario(gateway):
            first = [asyncio.ensure_future(gateway.invoke("echo", {"n": i}))
                     for i in range(2)]
            await asyncio.sleep(0)
            shed = await gateway.invoke("echo", {"n": 99})
            admitted = await asyncio.gather(*first)
            return shed, admitted

        shed, admitted = run_with_gateway(
            scenario,
            window_seconds=0.05,
            admission=AdmissionConfig(max_queue_depth=2,
                                      shed_policy="newest"))
        assert shed.status == 429
        assert [r.status for r in admitted] == [200, 200]

    def test_queue_depth_evicts_oldest(self):
        async def scenario(gateway):
            first = [asyncio.ensure_future(gateway.invoke("echo", {"n": i}))
                     for i in range(2)]
            await asyncio.sleep(0)
            newest = asyncio.ensure_future(
                gateway.invoke("echo", {"n": 99}))
            responses = await asyncio.gather(*first, newest)
            return responses

        responses = run_with_gateway(
            scenario,
            window_seconds=0.05,
            admission=AdmissionConfig(max_queue_depth=2,
                                      shed_policy="oldest"))
        # The oldest request was evicted with 429; the newcomer served.
        assert [r.status for r in responses] == [429, 200, 200]

    def test_deadline_expires_504(self):
        async def scenario(gateway):
            return await gateway.invoke("sleep", {"ms": 500})

        response = run_with_gateway(scenario, deadline_seconds=0.05)
        assert response.status == 504
        assert response.body["error"] == "deadline exceeded"

    def test_draining_platform_503(self):
        async def main():
            platform = fast_platform()
            gateway = make_gateway(platform)
            await asyncio.get_event_loop().run_in_executor(
                None, platform.shutdown)
            return await gateway.invoke("echo", {})

        response = asyncio.run(main())
        assert response.status == 503

    def test_vanilla_policy_dispatches_immediately(self):
        async def scenario(gateway):
            response = await gateway.invoke("echo", {"n": 1})
            return response, gateway.stats()

        response, stats = run_with_gateway(
            scenario, policy="vanilla", window_seconds=0.0)
        assert response.status == 200
        assert response.mode == "vanilla"
        assert stats["batched_requests"] == 0
        assert stats["degradation"]["mode"] == "vanilla"


class TestGatewayServer:
    @staticmethod
    async def http_request(host, port, method, path, payload=None):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = b"" if payload is None else json.dumps(payload).encode()
            head = (f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n").encode()
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split(b" ")[1])
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode().partition(":")
                headers[key.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            raw = await reader.readexactly(length) if length else b""
            return status, headers, json.loads(raw) if raw else None
        finally:
            writer.close()

    def run_with_server(self, scenario):
        async def main():
            platform = fast_platform()
            gateway = make_gateway(platform)
            server = GatewayServer(gateway, port=0)
            await server.start()
            try:
                return await scenario(server)
            finally:
                await server.stop()
                await asyncio.get_event_loop().run_in_executor(
                    None, platform.shutdown)

        return asyncio.run(main())

    def test_invoke_roundtrip(self):
        async def scenario(server):
            return await self.http_request(
                server.host, server.port, "POST", "/invoke/echo",
                {"n": 42})

        status, headers, body = self.run_with_server(scenario)
        assert status == 200
        assert body == {"result": {"n": 42}}
        assert headers["x-dispatch-mode"] == "batch"

    def test_healthz_stats_metrics(self):
        async def scenario(server):
            return [await self.http_request(server.host, server.port,
                                            "GET", path)
                    for path in ("/healthz", "/stats", "/metrics")]

        results = self.run_with_server(scenario)
        statuses = [status for status, _, _ in results]
        assert statuses == [200, 200, 200]
        assert results[1][2]["policy"] == "faasbatch"

    def test_unknown_route_404_and_bad_method_405(self):
        async def scenario(server):
            missing = await self.http_request(
                server.host, server.port, "GET", "/nope")
            wrong = await self.http_request(
                server.host, server.port, "GET", "/invoke/echo")
            return missing[0], wrong[0]

        missing, wrong = self.run_with_server(scenario)
        assert missing == 404
        assert wrong == 405

    def test_malformed_json_400(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            try:
                body = b"{not json"
                writer.write((f"POST /invoke/echo HTTP/1.1\r\n"
                              f"Host: x\r\nContent-Length: {len(body)}"
                              f"\r\nConnection: close\r\n\r\n").encode()
                             + body)
                await writer.drain()
                status_line = await reader.readline()
                return int(status_line.split(b" ")[1])
            finally:
                writer.close()

        assert self.run_with_server(scenario) == 400

    def test_oversized_body_413_then_close(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            try:
                # Only the head is sent: the declared length alone must
                # be refused, without the server reading a byte of body.
                writer.write((f"POST /invoke/echo HTTP/1.1\r\nHost: x\r\n"
                              f"Content-Length: {MAX_BODY_BYTES + 1}"
                              f"\r\n\r\n").encode())
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), 5.0)
            finally:
                writer.close()
            head, _, body = response.partition(b"\r\n\r\n")
            return head.decode().split("\r\n"), json.loads(body)

        head, body = self.run_with_server(scenario)
        assert head[0] == "HTTP/1.1 413 Payload Too Large"
        assert "Connection: close" in head
        assert body["error"] == "body too large"


class TestAdaptiveGateway:
    def test_probe_requests_carry_opposite_mode(self):
        async def scenario(gateway):
            responses = []
            for _ in range(6):
                responses.append(await gateway.invoke("echo", {}))
            return responses

        responses = run_with_gateway(
            scenario,
            degradation=DegradationConfig(
                enabled=True, window_size=8, min_samples=8,
                probe_every=3, cooldown=0))
        modes = [r.mode for r in responses]
        assert modes == ["batch", "batch", "vanilla",
                         "batch", "batch", "vanilla"]
        assert all(r.status == 200 for r in responses)


async def raw_http_request(host, port, method, path, payload=None,
                           headers=None):
    """Like the class helper, but keeps extra headers and a raw body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}",
                 f"Content-Length: {len(body)}", "Connection: close"]
        for key, value in (headers or {}).items():
            lines.append(f"{key}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split(b" ")[1])
        response_headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode().partition(":")
            response_headers[key.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0") or "0")
        raw = await reader.readexactly(length) if length else b""
        return status, response_headers, raw
    finally:
        writer.close()


class TestObservabilityEndpoints:
    def run_with_server(self, scenario, obs=None, **gateway_kwargs):
        async def main():
            platform = demo_platform(
                LocalPlatformConfig(cold_start_seconds=0.0), obs=obs)
            gateway = make_gateway(platform, **gateway_kwargs)
            server = GatewayServer(gateway, port=0)
            await server.start()
            try:
                return await scenario(server)
            finally:
                await server.stop()
                await asyncio.get_event_loop().run_in_executor(
                    None, platform.shutdown)

        return asyncio.run(main())

    def test_request_ids_are_seeded_and_sequential(self):
        async def scenario(server):
            ids = []
            for path in ("/healthz", "/stats"):
                _, headers, _ = await raw_http_request(
                    server.host, server.port, "GET", path)
                ids.append(headers["x-request-id"])
            _, headers, _ = await raw_http_request(
                server.host, server.port, "POST", "/invoke/echo", {"n": 1})
            ids.append(headers["x-request-id"])
            return ids

        ids = self.run_with_server(scenario, seed=42)
        # One seeded arrival counter across every route: same run, same ids.
        assert ids == ["req-2a-0", "req-2a-1", "req-2a-2"]
        assert self.run_with_server(scenario, seed=42) == ids

    def test_healthz_and_stats_report_uptime(self):
        async def scenario(server):
            out = []
            for path in ("/healthz", "/stats"):
                _, _, raw = await raw_http_request(
                    server.host, server.port, "GET", path)
                out.append(json.loads(raw))
            return out

        healthz, stats = self.run_with_server(scenario)
        for body in (healthz, stats):
            assert body["started_at"] > 0
            assert body["uptime_s"] >= 0
        assert healthz["status"] == "ok"

    def test_metrics_json_marks_disabled_obs(self):
        async def scenario(server):
            _, headers, raw = await raw_http_request(
                server.host, server.port, "GET", "/metrics")
            return headers, json.loads(raw)

        headers, body = self.run_with_server(scenario)  # obs=None stack
        assert headers["content-type"] == "application/json"
        assert body == {"obs": "disabled"}

    def test_metrics_json_snapshot_when_obs_enabled(self):
        from repro.obs import Observability

        async def scenario(server):
            await raw_http_request(server.host, server.port,
                                   "POST", "/invoke/echo", {"n": 1})
            _, _, raw = await raw_http_request(
                server.host, server.port, "GET", "/metrics")
            return json.loads(raw)

        body = self.run_with_server(scenario, obs=Observability())
        assert "obs" not in body
        assert any(name.startswith("local.") or name.startswith("pool.")
                   for name in body)

    def test_metrics_prometheus_negotiation(self):
        from repro.obs import Observability
        from repro.obs.prom import PROMETHEUS_CONTENT_TYPE

        async def scenario(server):
            await raw_http_request(server.host, server.port,
                                   "POST", "/invoke/echo", {"n": 1})
            by_query = await raw_http_request(
                server.host, server.port, "GET",
                "/metrics?format=prometheus")
            by_accept = await raw_http_request(
                server.host, server.port, "GET", "/metrics",
                headers={"Accept": "text/plain"})
            return by_query, by_accept

        by_query, by_accept = self.run_with_server(
            scenario, obs=Observability())
        for status, headers, raw in (by_query, by_accept):
            page = raw.decode()
            assert status == 200
            assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
            assert "# TYPE" in page
            assert "gateway_requests_total 1" in page

    def test_prometheus_without_obs_still_serves_gateway_stats(self):
        async def scenario(server):
            _, headers, raw = await raw_http_request(
                server.host, server.port, "GET",
                "/metrics?format=prometheus")
            return headers, raw.decode()

        headers, page = self.run_with_server(scenario)
        assert headers["content-type"].startswith("text/plain")
        assert "gateway_requests_total" in page


@pytest.mark.parametrize("kwargs", [
    {"policy": "nope"},
    {"window_seconds": -1.0},
    {"deadline_seconds": 0.0},
])
def test_gateway_config_rejects_bad_values(kwargs):
    from repro.common.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        GatewayConfig(**kwargs)


def run_server_scenario(scenario, **gateway_kwargs):
    """Run async *scenario(server)* against a fresh demo stack + server."""

    async def main():
        platform = fast_platform()
        server = GatewayServer(make_gateway(platform, **gateway_kwargs),
                               port=0)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()
            await asyncio.get_event_loop().run_in_executor(
                None, platform.shutdown)

    return asyncio.run(main())


def split_responses(raw: bytes):
    """Parse back-to-back HTTP responses into (status, headers, body)."""
    responses = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        responses.append((int(lines[0].split(" ")[1]), headers, body))
    return responses


def invoke_request(n: int, version: str = "HTTP/1.1", connection=None,
                   pad: str = "") -> bytes:
    body = json.dumps({"n": n, "pad": pad} if pad else {"n": n}).encode()
    head = f"POST /invoke/echo {version}\r\nContent-Length: {len(body)}\r\n"
    if connection is not None:
        head += f"Connection: {connection}\r\n"
    return (head + "\r\n").encode() + body


async def send_and_read_all(server, data: bytes, timeout: float = 5.0):
    """Send *data* on a fresh connection; read until the server closes."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(data)
        return await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        await writer.wait_closed()


class TestProtocolServer:
    def test_chunked_body_is_refused_without_running_a_handler(self):
        async def scenario(server):
            raw = await send_and_read_all(server, (
                b"POST /invoke/echo HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"8\r\n{\"n\": 1}\r\n0\r\n\r\n"))
            return split_responses(raw), server.gateway.requests_total

        responses, requests_total = run_server_scenario(scenario)
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["error"] == "malformed request"
        assert requests_total == 0

    def test_http_1_0_closes_unless_keep_alive(self):
        async def scenario(server):
            # Both requests are sent; a closing server answers only one.
            closed = await send_and_read_all(
                server, invoke_request(1, "HTTP/1.0") * 2)
            kept = await send_and_read_all(
                server, invoke_request(2, "HTTP/1.0", "Keep-Alive")
                + invoke_request(3, "HTTP/1.0"))
            return split_responses(closed), split_responses(kept)

        closed, kept = run_server_scenario(scenario)
        assert [headers["connection"] for _, headers, _ in closed] == \
            ["close"]
        assert [headers["connection"] for _, headers, _ in kept] == \
            ["keep-alive", "close"]
        assert [json.loads(body)["result"]["n"] for _, _, body in kept] == \
            [2, 3]

    def test_connection_tokens_are_case_insensitive(self):
        async def scenario(server):
            return split_responses(await send_and_read_all(
                server, invoke_request(1, connection="Close")
                + invoke_request(2)))

        responses = run_server_scenario(scenario)
        assert len(responses) == 1
        assert responses[0][1]["connection"] == "close"

    def test_stop_closes_idle_keep_alive_connections(self, caplog):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            await asyncio.sleep(0.05)  # accepted, nothing sent
            started = time.monotonic()
            await server.stop()
            elapsed = time.monotonic() - started
            at_eof = await asyncio.wait_for(reader.read(), 1.0)
            writer.close()
            await writer.wait_closed()
            return elapsed, at_eof

        with caplog.at_level(logging.ERROR):
            elapsed, at_eof = run_server_scenario(scenario)
        assert elapsed < 1.0
        assert at_eof == b""
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_pipelined_requests_answered_in_order(self):
        async def scenario(server):
            return split_responses(await send_and_read_all(
                server, invoke_request(0) + invoke_request(1)
                + invoke_request(2, connection="close")))

        responses = run_server_scenario(scenario)
        assert [status for status, _, _ in responses] == [200, 200, 200]
        assert [json.loads(body)["result"]["n"]
                for _, _, body in responses] == [0, 1, 2]
        assert [headers["x-request-id"] for _, headers, _ in responses] == \
            ["req-0-0", "req-0-1", "req-0-2"]

    @staticmethod
    async def open_non_reader(server):
        """A connection whose two socket buffers are a few KB, so what a
        client that does not read leaves unread backs up into the server."""
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect((server.host, server.port))
        sock.setblocking(False)
        reader, writer = await asyncio.open_connection(sock=sock)
        await asyncio.sleep(0.05)
        (connection,) = server._connections
        connection.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        return reader, writer, connection

    def test_a_client_that_does_not_read_is_pushed_back(self):
        count, pad = 1000, "x" * 1000
        request = invoke_request(0, pad=pad)

        async def scenario(server):
            reader, writer, connection = await self.open_non_reader(server)
            writer.write(b"".join(invoke_request(n, pad=pad)
                                  for n in range(count - 1))
                         + invoke_request(count - 1, connection="close",
                                          pad=pad))
            transport = connection.transport
            high_water = transport.get_write_buffer_limits()[1]
            buffered = written = inflight = 0
            read_paused = write_paused = False
            for _ in range(60):  # the client reads nothing meanwhile
                buffered = max(buffered, len(connection.buffer))
                written = max(written, transport.get_write_buffer_size())
                inflight = max(inflight, server.gateway.admission.inflight)
                read_paused |= not transport.is_reading()
                write_paused |= connection.write_paused
                await asyncio.sleep(0.005)
            stalled = server.gateway.requests_total
            raw = await asyncio.wait_for(reader.read(), 30.0)
            writer.close()
            await writer.wait_closed()
            return (buffered, written, inflight, read_paused, write_paused,
                    stalled, high_water, transport.max_size,
                    split_responses(raw))

        (buffered, written, inflight, read_paused, write_paused, stalled,
         high_water, read_size, responses) = run_server_scenario(
            scenario, policy="vanilla", window_seconds=0.0)
        assert read_paused and write_paused and stalled < count
        # One request in flight, one socket read ahead, one write buffer.
        assert inflight <= 1
        assert buffered <= read_size + len(request)
        assert written <= high_water + len(request) + 256
        assert len(responses) == count
        assert [json.loads(body)["result"]["n"]
                for _, _, body in responses] == list(range(count))

    def test_stop_aborts_a_client_that_stopped_reading(self):
        async def scenario(server):
            reader, writer, _ = await self.open_non_reader(server)
            writer.write(b"".join(invoke_request(n, pad="x" * 5000)
                                  for n in range(100)))
            await asyncio.sleep(0.2)
            started = time.monotonic()
            await server.stop()
            elapsed = time.monotonic() - started
            writer.close()
            return elapsed, server.gateway.requests_total

        elapsed, served = run_server_scenario(
            scenario, policy="vanilla", window_seconds=0.0,
            deadline_seconds=0.3)
        assert served < 100  # the write side really was full
        assert 0.3 <= elapsed < 1.0  # one deadline budget, then abort


    def test_an_evicted_pipeliner_does_not_overfill_the_window(self):
        async def scenario(server):
            gateway, sizes = server.gateway, []
            dispatch = gateway._dispatch

            def recording(function, requests):
                sizes.append(len(requests))
                dispatch(function, requests)

            gateway._dispatch = recording  # before any batcher captures it
            # The evictee's connection has its next request buffered; it
            # must not be admitted inside the admission that evicted it.
            evictee = asyncio.ensure_future(send_and_read_all(
                server,
                invoke_request(0) + invoke_request(1, connection="close")))
            await asyncio.sleep(0.01)
            other = asyncio.ensure_future(send_and_read_all(
                server, invoke_request(2, connection="close")))
            await asyncio.sleep(0.01)
            newest = await send_and_read_all(
                server, invoke_request(3, connection="close"))
            answers = [split_responses(raw)
                       for raw in (await evictee, await other, newest)]
            return sizes, [[status for status, _, _ in answer]
                           for answer in answers]

        sizes, statuses = run_server_scenario(
            scenario, window_seconds=0.05,
            admission=AdmissionConfig(max_queue_depth=2,
                                      shed_policy="oldest"))
        assert max(sizes) <= 2, sizes
        assert statuses[0][0] == 429 and len(statuses[0]) == 2

    @pytest.mark.parametrize("bad_body", [b"\xff", b"[" * 100_000],
                             ids=["invalid-utf8", "deeply-nested"])
    def test_a_bad_pipelined_body_disturbs_no_other_request(self, bad_body):
        async def scenario(server):
            # The bad body is routed from inside the completion drain,
            # when the request ahead of it on its connection settles.
            bad = (b"POST /invoke/echo HTTP/1.1\r\nConnection: close\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(bad_body) + bad_body)
            pipelined, other = await asyncio.gather(
                send_and_read_all(server, invoke_request(0) + bad),
                send_and_read_all(server,
                                  invoke_request(1, connection="close")))
            later = await send_and_read_all(server, (
                b'POST /invoke/sleep HTTP/1.1\r\nConnection: close\r\n'
                b'Content-Length: 11\r\n\r\n{"ms": 600}'))
            return [[status for status, _, _ in split_responses(raw)]
                    for raw in (pipelined, other, later)]

        pipelined, other, later = run_server_scenario(
            scenario, window_seconds=0.05, deadline_seconds=0.3)
        assert pipelined == [200, 400]
        assert other == [200]
        assert later == [504]


class TestDeadlineFifo:
    def test_504_lands_at_the_deadline(self):
        async def scenario(gateway):
            return await gateway.invoke("sleep", {"ms": 400})

        response = run_with_gateway(scenario, deadline_seconds=0.1)
        assert response.status == 504
        assert response.body == {"error": "deadline exceeded",
                                 "deadline_s": 0.1}
        assert 100.0 <= response.latency_ms < 250.0

    def test_fifo_shrinks_back_to_the_inflight_set(self):
        async def burst_then(gateway, first_slow):
            def start(function, payload):
                return asyncio.ensure_future(gateway.invoke(function, payload))

            slow = start("sleep", {"ms": 50}) if first_slow else None
            echoes = [start("echo", {"n": n}) for n in range(50)]
            if slow is None:
                slow = start("sleep", {"ms": 50})
            await asyncio.gather(*echoes)
            during = (len(gateway._deadlines), gateway.admission.inflight)
            await slow
            return during, len(gateway._deadlines)

        async def scenario(gateway):
            return (await burst_then(gateway, first_slow=False),
                    await burst_then(gateway, first_slow=True))

        slow_last, slow_first = run_with_gateway(scenario)
        # Settled requests leave with the head: only the slow one is left.
        assert slow_last == ((1, 1), 0)
        # Behind an unsettled head they wait for it, at most one budget.
        assert slow_first == ((51, 1), 0)

    def test_a_stuck_head_delays_no_later_504(self):
        async def scenario(gateway):
            head = asyncio.ensure_future(
                gateway.invoke("sleep", {"ms": 400}))
            await asyncio.sleep(0.03)
            later = await gateway.invoke("sleep", {"ms": 400})
            return await head, later

        head, later = run_with_gateway(scenario, deadline_seconds=0.1)
        assert (head.status, later.status) == (504, 504)
        assert 100.0 <= later.latency_ms < 250.0
