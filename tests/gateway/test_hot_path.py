"""The gateway's hot path: what a request costs, keeps and can explain.

The newest completed requests stay in ``platform.completed``, so whatever
one still references is what the serving tier holds per request; the stage
histograms split its latency along the loop → runner → handler → loop path
from timestamps both tiers take anyway.
"""

from __future__ import annotations

import asyncio
import gc
import json
import tracemalloc

from repro.gateway import GatewayServer
from repro.gateway.harness import CellSpec, build_stack
from repro.gateway.loadgen import HttpPool, LoadgenConfig
from repro.gateway.server import STAGES
from repro.local.container import LocalContainer
from repro.obs.prom import render_gateway_stats

from tests.gateway.test_server import raw_http_request
from tests.obs.test_prom import parse_exposition

STAGE_NAMES = [f"gateway.stage.{stage}_ms" for stage in STAGES]


def run_echo_stack(scenario, policy="vanilla", window_seconds=0.0,
                   **spec_kwargs):
    """Run async *scenario(platform, gateway)* on the gw-http-echo stack."""

    async def main():
        platform, gateway = build_stack(CellSpec(
            label="hot-path", policy=policy,
            load=LoadgenConfig(rps=100.0, duration_seconds=1.0, seed=1),
            window_seconds=window_seconds, cold_start_seconds=0.0,
            **spec_kwargs))
        try:
            return await scenario(platform, gateway)
        finally:
            gateway.close()
            await asyncio.get_event_loop().run_in_executor(
                None, platform.shutdown)

    return asyncio.run(main())


class TestReadBuffers:
    def test_keep_alive_requests_allocate_no_large_read_buffer(self):
        """Server and client read in small chunks.  asyncio's default read
        size is 256 KiB, allocated fresh per read and freed at once: the
        heap handed that block back to the OS and faulted it in again on
        every request whenever it sat at the heap's top."""

        async def scenario(platform, gateway):
            server = GatewayServer(gateway, port=0)
            await server.start()
            pool = HttpPool(server.host, server.port, size=1)
            await pool.start()
            try:
                for n in range(20):  # connection and caches warm
                    await pool.request("/invoke/echo", {"n": n})
                tracemalloc.start()
                try:
                    for n in range(20):
                        status, _, _ = await pool.request("/invoke/echo",
                                                          {"n": n})
                        assert status == 200
                    current, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            finally:
                await pool.close()
                await server.stop()
            return peak - current

        assert run_echo_stack(scenario) < 64 * 1024


class TestRetainedPerRequest:
    def test_a_completed_request_retains_under_a_kilobyte(self):
        requests = 2000

        async def scenario(platform, gateway):
            for n in range(300):  # pools, caches and histograms warm
                await gateway.invoke("echo", {"n": n})
            gc.collect()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                for n in range(requests):
                    response = await gateway.invoke("echo", {"n": n})
                    assert response.status == 200
                del response
                # Deadline entries pin a request for one handler budget.
                await asyncio.sleep(0.12)
                gc.collect()
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(platform.completed) == 300 + requests
            return (after - before) / requests

        per_request = run_echo_stack(scenario, request_timeout_seconds=0.1)
        # ~358 B here (~570 B while a completed invocation still held its
        # payload and result), bounded with a 25 % margin.  It was ~3 KB
        # when every invocation owned a Future (1.3 KB), its done callback
        # pinned the request/response chain, and every attempt stored a
        # history dict in a per-invocation list.
        assert per_request <= 450, per_request

    def test_nothing_of_the_callers_request_is_pinned(self):
        async def scenario(platform, gateway):
            for n in range(50):
                await gateway.invoke("echo", {"n": n})
            await asyncio.sleep(0.01)
            return platform.completed

        completed = run_echo_stack(scenario)
        assert len(completed) == 50
        assert all(inv.on_resolved is None and inv._future is None
                   for inv in completed)
        # The caller has its answer, so neither side of it is kept.
        assert all(inv.payload is None and inv.result is None
                   for inv in completed)


class TestStageSplit:
    def test_four_stages_observed_once_per_served_request(self):
        async def scenario(platform, gateway):
            for n in range(40):
                assert (await gateway.invoke("echo", {"n": n})).status == 200
            assert (await gateway.invoke("nope", {})).status == 404
            return gateway.stats()

        stats = run_echo_stack(scenario)
        assert sorted(stats["stages"]) == sorted(STAGE_NAMES)
        for name in STAGE_NAMES:
            stage = stats["stages"][name]
            assert stage["type"] == "histogram"
            assert stage["count"] == 40  # the 404 never reached a runner
            assert stage["min"] >= 0.0
        assert 1 <= stats["runners_started"] <= 4
        assert 0 <= stats["runners_idle"] <= stats["runners_started"]
        json.dumps(stats)  # /stats must stay serialisable

    def test_window_wait_is_where_a_batched_request_waits(self):
        async def scenario(platform, gateway):
            await asyncio.gather(*[
                gateway.invoke("echo", {"n": n}) for n in range(16)])
            return gateway.stats()["stages"]

        stages = run_echo_stack(scenario, policy="faasbatch",
                                window_seconds=0.02)
        window = stages["gateway.stage.window_wait_ms"]
        execute = stages["gateway.stage.execute_ms"]
        assert window["count"] == execute["count"] == 16
        assert window["min"] >= 15.0  # the 20 ms window, less timer slack
        assert execute["max"] < window["min"]

    def test_stages_and_runner_gauges_on_the_prometheus_page(self):
        async def scenario(platform, gateway):
            server = GatewayServer(gateway, port=0)
            await server.start()
            try:
                for n in range(5):
                    status, _, _ = await raw_http_request(
                        server.host, server.port, "POST", "/invoke/echo",
                        {"n": n})
                    assert status == 200
                _, _, page = await raw_http_request(
                    server.host, server.port, "GET",
                    "/metrics?format=prometheus")
                _, _, stats = await raw_http_request(
                    server.host, server.port, "GET", "/stats")
                return page.decode(), json.loads(stats)
            finally:
                await server.stop()

        page, stats = run_echo_stack(scenario)
        samples = parse_exposition(page)
        for stage in STAGES:
            name = f"gateway_stage_{stage}_ms"
            assert samples[f"{name}_count"][""] == "5"
            assert samples[f"{name}_bucket"]['{le="+Inf"}'] == "5"
            assert f"# TYPE {name} histogram" in page
        assert int(samples["gateway_runners_started"][""]) >= 1
        assert "gateway_runners_idle" in samples
        assert sorted(stats["stages"]) == sorted(STAGE_NAMES)
        # What /stats carries is exactly what the page renders.
        assert render_gateway_stats(stats).count("# TYPE gateway_stage_") == 4


class TestFailureOutsideAHandler:
    def test_execute_failure_answers_500_not_a_null_200(self, monkeypatch):
        def broken(self, invocations, on_done=None):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(LocalContainer, "execute_batch", broken)

        async def scenario(platform, gateway):
            response = await gateway.invoke("echo", {"n": 1})
            return response, gateway.stats()

        response, stats = run_echo_stack(scenario, max_attempts=1)
        assert response.status == 500
        assert response.body["error"] == "RuntimeError"
        assert stats["responses_by_status"] == {"500": 1}
        # No handler ran, so there is no stage split to record.
        assert stats["stages"]["gateway.stage.execute_ms"]["count"] == 0
