"""Tests for the seeded open-loop load generator and its roll-ups."""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.gateway.loadgen import (
    HttpPool,
    LoadgenConfig,
    LoadResult,
    RequestSample,
    build_phased_schedule,
    build_schedule,
)


class TestLoadgenConfig:
    @pytest.mark.parametrize("kwargs", [
        {"rps": 0.0},
        {"duration_seconds": 0.0},
        {"mix": {}},
        {"mix": {"echo": -1.0}},
        {"bucket_seconds": 0.0},
        {"max_connections": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        defaults = dict(rps=100.0, duration_seconds=1.0)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            LoadgenConfig(**defaults)


class TestBuildSchedule:
    def test_deterministic_for_seed(self):
        config = LoadgenConfig(rps=500.0, duration_seconds=1.0, seed=7)
        first = build_schedule(config)
        second = build_schedule(config)
        assert first == second
        assert build_schedule(
            LoadgenConfig(rps=500.0, duration_seconds=1.0,
                          seed=8)) != first

    def test_rate_and_horizon(self):
        config = LoadgenConfig(rps=1000.0, duration_seconds=2.0, seed=13)
        schedule = build_schedule(config)
        # Poisson arrivals: expect ~2000 +- a generous tolerance.
        assert 1700 <= len(schedule) <= 2300
        assert all(0 <= a.offset_seconds < 2.0 for a in schedule)
        assert all(a.function in config.mix for a in schedule)

    def test_poisson_schedule_is_frozen(self):
        """The schedule ``gw-inproc-mix`` replays: same draws, same order.

        The digest was taken from the generator before its ``arrival``
        knob was removed.
        """
        schedule = build_schedule(
            LoadgenConfig(rps=1000, duration_seconds=10, seed=13))
        text = json.dumps([[a.offset_seconds, a.function, a.payload]
                           for a in schedule], sort_keys=True)
        assert len(schedule) == 9708
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5ee9d5d61f60c69600246e0997853e8d607015d9067c422c41a96f428e8c1d52")

    def test_phased_schedule_concatenates_offsets(self):
        io_phase = LoadgenConfig(rps=200.0, duration_seconds=1.0,
                                 mix={"io": 1.0})
        echo_phase = LoadgenConfig(rps=200.0, duration_seconds=1.0,
                                   mix={"echo": 1.0})
        schedule = build_phased_schedule([io_phase, echo_phase])
        first = [a for a in schedule if a.offset_seconds < 1.0]
        second = [a for a in schedule if a.offset_seconds >= 1.0]
        assert first and second
        assert {a.function for a in first} == {"io"}
        assert {a.function for a in second} == {"echo"}
        assert max(a.offset_seconds for a in schedule) < 2.0

    def test_phased_schedule_requires_phases(self):
        with pytest.raises(ConfigurationError):
            build_phased_schedule([])


def make_result(samples, duration=1.0) -> LoadResult:
    config = LoadgenConfig(rps=float(len(samples)),
                           duration_seconds=duration,
                           bucket_seconds=0.5)
    return LoadResult("cell", "faasbatch", "inproc", config, samples,
                      wall_seconds=duration, gateway_stats={
                          "batches_dispatched": 2,
                          "batched_requests": len(samples),
                          "degradation": {"mode": "batch", "flips": []}})


def sample(offset, status, latency_ms) -> RequestSample:
    return RequestSample(offset_seconds=offset, lateness_ms=0.1,
                         status=status, latency_ms=latency_ms,
                         mode="batch")


class TestLoadResult:
    def test_cell_counts_and_summary(self):
        samples = ([sample(i * 0.1, 200, 10.0 + i) for i in range(8)]
                   + [sample(0.85, 429, 0.1), sample(0.9, 504, 50.0)])
        cell = make_result(samples).cell()
        assert cell["requests"] == 10
        assert cell["completed"] == 8
        assert cell["shed"] == 1
        assert cell["timeouts"] == 1
        assert cell["errors"] == 0
        assert cell["goodput_ratio"] == 0.8
        assert cell["latency_ms"]["count"] == 8
        assert cell["latency_ms"]["p50"] == pytest.approx(13.5)
        assert cell["mean_batch_size"] == 5.0

    def test_cdf_is_monotone_and_complete(self):
        samples = [sample(0.0, 200, float(latency))
                   for latency in range(100, 0, -1)]
        points = make_result(samples).cdf_points(max_points=10)
        xs = [p[0] for p in points]
        fracs = [p[1] for p in points]
        assert xs == sorted(xs)
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_goodput_series_buckets(self):
        samples = [sample(0.1, 200, 1.0), sample(0.2, 200, 1.0),
                   sample(0.6, 429, 0.1), sample(0.7, 200, 1.0)]
        series = make_result(samples).goodput_series()
        # bucket_seconds=0.5: bucket 0 holds two OKs, bucket 1 one OK +
        # one shed.
        assert series["goodput_rps"] == [[0.25, 4.0], [0.75, 2.0]]
        assert series["shed_rps"] == [[0.25, 0.0], [0.75, 2.0]]
        assert series["offered_rps"] == [[0.25, 4.0], [0.75, 4.0]]

    def test_report_records_stream(self):
        samples = [sample(0.1, 200, 5.0)]
        records = make_result(samples).report_records()
        types = [record["type"] for record in records]
        assert types.count("gateway-cell") == 1
        assert types.count("gateway-cdf") == 1
        assert types.count("gateway-series") == 3

    def test_cell_feeds_bench_validation(self):
        from repro.bench import gateway_report, validate_report
        samples = [sample(i * 0.01, 200, 5.0) for i in range(20)]
        report = gateway_report([make_result(samples).cell()])
        validate_report(report)  # must not raise
        assert report["schema"] == "faasbatch-bench/v7"
        assert report["config"]["invocations"] == 20


class TestRunInproc:
    def test_small_cell_full_goodput(self):
        from repro.gateway import CellSpec, run_cell

        load = LoadgenConfig(rps=200.0, duration_seconds=0.5, seed=13,
                             mix={"echo": 1.0})
        spec = CellSpec(label="t", policy="faasbatch", load=load,
                        window_seconds=0.005,
                        request_timeout_seconds=None)
        result = asyncio.run(run_cell(spec))
        cell = result.cell()
        assert cell["requests"] == len(result.samples) > 0
        assert cell["goodput_ratio"] == 1.0
        assert cell["latency_ms"]["count"] == cell["requests"]
        assert result.gateway_stats["platform_state"] == "accepting"


class TestHttpPoolReconnect:
    """A dropped or refused keep-alive connection is a 503 and leaks nothing."""

    @staticmethod
    async def statuses():
        served = []  # server-side writers, one per accepted connection

        async def handle(reader, writer):
            served.append(writer)
            try:
                while True:
                    await reader.readuntil(b"\r\n\r\n")
                    if len(served) == 1:
                        break  # drop the pool's first connection unanswered
                    writer.write(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Length: 2\r\n\r\n{}")
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        pool = HttpPool("127.0.0.1", server.sockets[0].getsockname()[1],
                        size=1)
        await pool.start()
        statuses = [(await pool.request("/invoke/echo", None))[0]
                    for _ in range(2)]
        server.close()  # now every reconnect is refused
        for writer in served:
            writer.transport.abort()
        await server.wait_closed()
        statuses += [(await pool.request("/invoke/echo", None))[0]
                     for _ in range(2)]
        await pool.close()
        return statuses

    def test_drop_then_reconnect_then_refused(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            statuses = asyncio.run(self.statuses())
            gc.collect()
        assert statuses == [503, 200, 503, 503]
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []
