"""Real (wall-clock) retries and timeouts in the local runtime."""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import ConfigurationError, InvocationTimeout
from repro.local.container import LocalContainer, LocalInvocation
from repro.local.runtime import LocalPlatform, LocalPlatformConfig
from tests.local.helpers import call, watch


def flaky_handler(failures: int):
    """A handler that raises on its first *failures* calls, then succeeds."""
    lock = threading.Lock()
    calls = {"n": 0}

    def handler(payload, context):
        with lock:
            calls["n"] += 1
            if calls["n"] <= failures:
                raise RuntimeError(f"flaky failure #{calls['n']}")
        return payload

    return handler


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"request_timeout_seconds": 0.0},
        {"request_timeout_seconds": -1.0},
        {"max_attempts": 0},
        {"max_attempts": -1},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LocalPlatformConfig(**kwargs)


class TestRetries:
    def test_flaky_handler_recovered(self):
        platform = LocalPlatform(LocalPlatformConfig(max_attempts=3))
        platform.register("flaky", flaky_handler(failures=2))
        assert call(platform, "flaky", "ok").result(timeout=10) == "ok"
        assert platform.retries_scheduled == 2
        assert platform.retries_exhausted == 0
        platform.shutdown()

    def test_exhausted_retries_fail_the_future(self):
        platform = LocalPlatform(LocalPlatformConfig(max_attempts=2))
        platform.register("flaky", flaky_handler(failures=10))
        future = call(platform, "flaky")
        with pytest.raises(RuntimeError, match="flaky failure #2"):
            future.result(timeout=10)
        assert platform.retries_scheduled == 1
        assert platform.retries_exhausted == 1
        platform.shutdown()

    def test_no_retries_by_default(self):
        platform = LocalPlatform()
        platform.register("flaky", flaky_handler(failures=1))
        with pytest.raises(RuntimeError, match="flaky failure #1"):
            call(platform, "flaky").result(timeout=10)
        assert platform.retries_scheduled == 0
        platform.shutdown()

    def test_drain_waits_through_retries(self):
        platform = LocalPlatform(LocalPlatformConfig(max_attempts=3))
        platform.register("flaky", flaky_handler(failures=2))
        future = call(platform, "flaky", "done")
        platform.drain(timeout=10)
        # After drain the future must already hold its final outcome.
        assert future.done()
        assert future.result(timeout=0) == "done"
        platform.shutdown()


class TestTimeouts:
    def test_overrunning_handler_times_out(self):
        platform = LocalPlatform(LocalPlatformConfig(
            request_timeout_seconds=0.05))
        platform.register("slow", lambda p, c: time.sleep(5.0))
        with pytest.raises(InvocationTimeout):
            call(platform, "slow").result(timeout=10)
        platform.shutdown()

    def test_fast_handler_unaffected(self):
        platform = LocalPlatform(LocalPlatformConfig(
            request_timeout_seconds=5.0))
        platform.register("echo", lambda p, c: p)
        assert call(platform, "echo", 7).result(timeout=10) == 7
        platform.shutdown()


class TestAttemptAccounting:
    def test_attempts_and_total_latency(self):
        platform = LocalPlatform(LocalPlatformConfig(max_attempts=3))
        flaky = flaky_handler(failures=1)

        def slow_first_attempt(payload, context):
            if not context_attempts:
                context_attempts.append(1)
                time.sleep(0.05)
            return flaky(payload, context)

        context_attempts = []
        platform.register("flaky", slow_first_attempt)
        call(platform, "flaky").result(timeout=10)
        platform.drain(timeout=10)
        invocation = platform.completed[-1]
        assert invocation.attempts == 2
        # Total latency spans from first submission, so it includes the
        # failed first attempt; the per-attempt latency does not.
        total = invocation.completed_at - invocation.first_submitted_at
        assert total >= 0.05
        assert total > invocation.latency_seconds


class TestStandaloneContainer:
    def test_direct_container_still_resolves_immediately(self):
        # Without defer_resolution (the standalone default), the future is
        # settled by the container itself -- the pre-retry behaviour.
        container = LocalContainer("c-0", "echo", lambda p, c: p)
        invocation = LocalInvocation("i0", "echo", 5)
        invocation.submitted_at = time.monotonic()
        future = watch(invocation)
        container.execute_batch([invocation])
        assert future.result(timeout=5) == 5
        container.stop()

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            LocalContainer("c-0", "echo", lambda p, c: p,
                           timeout_seconds=0.0)
