"""The local runtime publishes spans and counters into ``repro.obs``."""

from __future__ import annotations

import threading

from repro.local.runtime import LocalPlatform, LocalPlatformConfig
from repro.obs import Observability
from tests.local.helpers import call, call_group, submit


def run_burst(obs: Observability, total: int = 12, **config_kwargs):
    defaults = dict(cold_start_seconds=0.0)
    defaults.update(config_kwargs)
    platform = LocalPlatform(LocalPlatformConfig(**defaults), obs=obs)
    platform.register("echo", lambda payload, context: payload)
    try:
        futures = call_group(platform, "echo", list(range(total)))
        return [f.result(timeout=10) for f in futures]
    finally:
        platform.shutdown()


class TestLocalMetrics:
    def test_counters_published(self):
        obs = Observability()
        run_burst(obs, total=12)
        snapshot = obs.metrics.snapshot()
        assert snapshot["local.invocations.completed"]["value"] == 12
        # Counters are created on first increment; a clean run never
        # creates the failure counter at all.
        assert "local.invocations.failed" not in snapshot
        assert snapshot["local.windows.executed"]["value"] >= 1
        assert snapshot["local.cold_starts"]["value"] >= 1
        assert "local.batch_size" in snapshot
        assert "local.latency_ms" in snapshot

    def test_failures_and_retries_counted(self):
        obs = Observability()
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0,
            max_attempts=2), obs=obs)
        platform.register("boom",
                          lambda payload, context: 1 / 0)
        try:
            future = call(platform, "boom", None)
            assert isinstance(future.exception(timeout=10),
                              ZeroDivisionError)
        finally:
            platform.shutdown()
        snapshot = obs.metrics.snapshot()
        assert snapshot["local.invocations.failed"]["value"] == 1
        assert snapshot["local.retries.scheduled"]["value"] == 1

    def test_no_obs_is_fine(self):
        assert run_burst(obs=None, total=4) == list(range(4))

    def test_accounted_and_published_before_the_future_resolves(self):
        """A client holding its response never sees an uncounted platform.

        The done-callback runs on the worker thread at the very instant the
        future resolves; the handler blocks until the callback is attached,
        so the observation is deterministic rather than a scrape race.
        """
        obs = Observability()
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0), obs=obs)
        release = threading.Event()
        platform.register(
            "gate", lambda payload, context: release.wait(10) and payload)
        seen = {}

        def at_resolution(_future):
            # The log takes the platform's lock itself.
            seen["completed"] = invocation in platform.completed
            counter = obs.metrics.snapshot().get(
                "local.invocations.completed", {"value": 0})
            seen["counted"] = counter["value"]

        try:
            (invocation,), (future,) = submit(platform, "gate", [7])
            future.add_done_callback(at_resolution)
            release.set()
            assert future.result(timeout=10) == 7
        finally:
            platform.shutdown()
        assert seen == {"completed": True, "counted": 1}


class TestLocalTracing:
    def test_spans_cover_every_invocation(self):
        obs = Observability(tracing=True)
        run_burst(obs, total=8)
        timelines = obs.tracer.timelines()
        assert len(timelines) == 8

    def test_timelines_pass_invariant_validation(self):
        obs = Observability(tracing=True)
        run_burst(obs, total=8)
        assert obs.tracer.validate_all() == []

    def test_retried_invocation_traced_once_with_final_attempt(self):
        obs = Observability(tracing=True)
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0,
            max_attempts=3), obs=obs)
        state = {"calls": 0}

        def flaky(payload, context):
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("first attempt fails")
            return payload

        platform.register("flaky", flaky)
        try:
            assert call(platform, "flaky", 7).result(timeout=10) == 7
        finally:
            platform.shutdown()
        # One timeline for the invocation, not one per attempt.
        assert len(obs.tracer.timelines()) == 1
        assert obs.tracer.validate_all() == []
