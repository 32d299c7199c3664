"""Tests for the platform lifecycle: accepting → draining → stopped."""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import (
    PlatformDraining,
    PlatformStateError,
    PlatformStopped,
)
from repro.local.runtime import (
    STATE_ACCEPTING,
    STATE_DRAINING,
    STATE_STOPPED,
    LocalPlatform,
    LocalPlatformConfig,
)
from tests.local.helpers import call


def make_platform(**kwargs) -> LocalPlatform:
    defaults = dict(cold_start_seconds=0.0)
    defaults.update(kwargs)
    platform = LocalPlatform(LocalPlatformConfig(**defaults))
    platform.register("echo", lambda payload, context: payload)
    return platform


class TestLifecycle:
    def test_fresh_platform_is_accepting(self):
        platform = make_platform()
        try:
            assert platform.state == STATE_ACCEPTING
        finally:
            platform.shutdown()

    def test_shutdown_reaches_stopped(self):
        platform = make_platform()
        assert call(platform, "echo", 1).result(timeout=5) == 1
        platform.shutdown()
        assert platform.state == STATE_STOPPED

    def test_invoke_after_stop_raises_platform_stopped(self):
        platform = make_platform()
        platform.shutdown()
        with pytest.raises(PlatformStopped):
            call(platform, "echo", 1)

    def test_submit_group_after_stop_raises(self):
        platform = make_platform()
        platform.shutdown()
        with pytest.raises(PlatformStopped):
            platform.submit_group("echo", [1, 2])

    def test_invoke_while_draining_raises_platform_draining(self):
        release = threading.Event()

        def gated(payload, context):
            release.wait(5)
            return payload

        platform = LocalPlatform(LocalPlatformConfig(cold_start_seconds=0.0))
        platform.register("gated", gated)
        future = call(platform, "gated", 1)
        shutdown_thread = threading.Thread(target=platform.shutdown)
        time.sleep(0.05)  # let the invocation reach a container
        shutdown_thread.start()
        deadline = time.monotonic() + 5
        while platform.state != STATE_DRAINING:
            assert time.monotonic() < deadline, "never started draining"
            time.sleep(0.001)
        with pytest.raises(PlatformDraining):
            call(platform, "gated", 2)
        release.set()
        shutdown_thread.join(timeout=5)
        assert not shutdown_thread.is_alive()
        assert platform.state == STATE_STOPPED
        assert future.result(timeout=1) == 1  # drained, not dropped

    def test_drain_waits_for_a_group_submitted_while_another_runs(self):
        """The in-flight event is cleared on 0 → n only: a second group
        admitted while the first runs must still hold ``drain`` once the
        first has finished, and so must one admitted after a drain."""
        gates = {name: threading.Event() for name in "abc"}
        platform = LocalPlatform(LocalPlatformConfig(cold_start_seconds=0.0))
        platform.register("gated", lambda name, context: gates[name].wait(5))
        try:
            first = call(platform, "gated", "a")
            second = call(platform, "gated", "b")
            gates["a"].set()
            assert first.result(timeout=5) is True
            with pytest.raises(TimeoutError):
                platform.drain(timeout=0.05)
            gates["b"].set()
            platform.drain(timeout=5)
            assert second.result(timeout=0) is True
            (third,) = platform.submit_group("gated", ["c"])
            with pytest.raises(TimeoutError):
                platform.drain(timeout=0.05)
            gates["c"].set()
            platform.drain(timeout=5)
            assert third.resolved
        finally:
            for gate in gates.values():
                gate.set()
            platform.shutdown()

    def test_lifecycle_errors_share_a_base_type(self):
        assert issubclass(PlatformDraining, PlatformStateError)
        assert issubclass(PlatformStopped, PlatformStateError)

    def test_shutdown_is_idempotent(self):
        platform = make_platform()
        platform.shutdown()
        platform.shutdown()  # second call must be a no-op
        assert platform.state == STATE_STOPPED

    def test_registered_functions_survive_shutdown(self):
        platform = make_platform()
        platform.shutdown()
        assert platform.has_function("echo")
        assert not platform.has_function("ghost")
