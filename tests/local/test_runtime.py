"""Tests for the local runtime: containers, platform, policies."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.common.errors import (
    ConfigurationError,
    ContainerStateError,
    FunctionNotRegistered,
    PlatformStopped,
)
from repro.gateway import Gateway, GatewayConfig
from repro.local.clients import FakeS3Client, InMemoryBucketStore
from repro.local.container import LocalContainer, LocalInvocation
from repro.local.runtime import LocalPlatform, LocalPlatformConfig
from tests.local.helpers import call, call_group, watch


def echo_handler(payload, context):
    return payload


class TestLocalContainer:
    def make(self, **kwargs):
        return LocalContainer(container_id="c-0", function_name="echo",
                              handler=echo_handler, **kwargs)

    def test_batch_executes_all(self):
        container = self.make()
        invocations = [LocalInvocation(f"i{i}", "echo", i)
                       for i in range(5)]
        futures = [watch(invocation) for invocation in invocations]
        container.execute_batch(invocations)
        assert [future.result(timeout=1) for future in futures] == \
            list(range(5))
        assert container.invocations_served == 5
        assert container.is_idle

    def test_handler_exception_reaches_future(self):
        def boom(payload, context):
            raise ValueError("nope")

        container = LocalContainer("c-0", "boom", boom)
        invocation = LocalInvocation("i0", "boom", None)
        future = watch(invocation)
        container.execute_batch([invocation])
        with pytest.raises(ValueError, match="nope"):
            future.result(timeout=1)

    def test_concurrency_limit_serialises(self):
        active = []
        peak = [0]
        lock = threading.Lock()

        def tracked(payload, context):
            with lock:
                active.append(1)
                peak[0] = max(peak[0], len(active))
            time.sleep(0.005)
            with lock:
                active.pop()

        container = LocalContainer("c-0", "t", tracked, concurrency=1)
        container.execute_batch(
            [LocalInvocation(f"i{i}", "t", None) for i in range(4)])
        assert peak[0] == 1

    def test_unbounded_concurrency_overlaps(self):
        peak = [0]
        count = [0]
        lock = threading.Lock()

        def tracked(payload, context):
            with lock:
                count[0] += 1
                peak[0] = max(peak[0], count[0])
            time.sleep(0.02)
            with lock:
                count[0] -= 1

        container = LocalContainer("c-0", "t", tracked)
        container.execute_batch(
            [LocalInvocation(f"i{i}", "t", None) for i in range(8)])
        assert peak[0] > 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            self.make().execute_batch([])

    def test_stopped_container_rejects_work(self):
        container = self.make()
        container.stop()
        with pytest.raises(ContainerStateError):
            container.execute_batch([LocalInvocation("i0", "echo", 0)])

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            self.make(concurrency=0)

    def test_latency_accessors_require_completion(self):
        invocation = LocalInvocation("i0", "echo", None)
        with pytest.raises(ContainerStateError):
            _ = invocation.latency_seconds


class TestLocalPlatform:
    def test_invoke_returns_result(self):
        platform = LocalPlatform()
        platform.register("echo", echo_handler)
        assert call(platform, "echo", 42).result(timeout=5) == 42
        platform.shutdown()

    def test_unknown_function_rejected(self):
        platform = LocalPlatform()
        with pytest.raises(FunctionNotRegistered):
            platform.submit_group("ghost", [None])
        platform.shutdown()

    def test_duplicate_registration_rejected(self):
        platform = LocalPlatform()
        platform.register("echo", echo_handler)
        with pytest.raises(ConfigurationError):
            platform.register("echo", echo_handler)
        platform.shutdown()

    def test_burst_lands_in_few_containers(self):
        platform = LocalPlatform(LocalPlatformConfig(cold_start_seconds=0.0))

        def work(payload, context):
            time.sleep(0.002)
            return payload

        platform.register("work", work)
        futures = call_group(platform, "work", list(range(30)))
        platform.drain()
        assert all(f.result(timeout=1) == i for i, f in enumerate(futures))
        assert platform.containers_created == 1  # one group, one container
        platform.shutdown()

    def test_vanilla_uses_container_per_invocation_in_burst(self):
        """Through a Vanilla gateway each request is its own group, and a
        Vanilla container serves one at a time: ten blocked concurrent
        requests hold ten containers."""
        gate = threading.Event()

        async def main():
            platform = LocalPlatform(LocalPlatformConfig.vanilla())
            platform.register(
                "blocked", lambda payload, context: gate.wait(5) and payload)
            gateway = Gateway(platform, GatewayConfig(policy="vanilla",
                                                      window_seconds=0.0))
            try:
                pending = [asyncio.ensure_future(
                    gateway.invoke("blocked", n)) for n in range(10)]
                deadline = time.monotonic() + 5.0
                while platform.containers_created < 10 \
                        and time.monotonic() < deadline:
                    await asyncio.sleep(0.005)
                gate.set()
                responses = await asyncio.gather(*pending)
            finally:
                gate.set()
                await asyncio.get_running_loop().run_in_executor(
                    None, platform.shutdown)
            return platform, responses

        platform, responses = asyncio.run(main())
        assert [r.body["result"] for r in responses] == list(range(10))
        assert platform.containers_created == 10

    def test_multiplexer_shares_clients_within_platform(self):
        store = InMemoryBucketStore()
        platform = LocalPlatform()

        def io_fn(payload, context):
            client = context.create_resource(
                FakeS3Client, "AK", "SK", store=store,
                construction_seconds=0.005)
            client.put_object(Bucket="b", Key=str(payload), Body=b"v")
            return id(client)

        platform.register("io_fn", io_fn)
        futures = call_group(platform, "io_fn", list(range(20)))
        platform.drain()
        client_ids = {f.result(timeout=2) for f in futures}
        assert len(client_ids) <= platform.containers_created
        assert platform.multiplexer_reuse_ratio() > 0.5
        assert len(store) == 20
        platform.shutdown()

    def test_latencies_recorded(self):
        platform = LocalPlatform()
        platform.register("echo", echo_handler)
        call(platform, "echo", 1).result(timeout=5)
        platform.drain()
        (invocation,) = platform.completed
        assert invocation.latency_seconds >= 0.0
        platform.shutdown()

    def test_invoke_after_shutdown_rejected(self):
        platform = LocalPlatform()
        platform.register("echo", echo_handler)
        platform.shutdown()
        with pytest.raises(PlatformStopped):
            platform.submit_group("echo", [1])

    def test_construction_starts_no_thread(self):
        """Work enters only through ``submit_group``: an idle platform
        has nothing to run and no window to hold, so it owns no thread."""
        before = set(threading.enumerate())
        platform = LocalPlatform()
        try:
            assert [thread.name for thread in threading.enumerate()
                    if thread not in before] == []
        finally:
            platform.shutdown()


class TestKeepAlive:
    def test_reuse_within_keep_alive_window(self):
        platform = LocalPlatform(LocalPlatformConfig(cold_start_seconds=0.0))
        platform.register("echo", echo_handler)
        for i in range(3):
            call(platform, "echo", i).result(timeout=5)
            platform.drain()
        assert platform.containers_created == 1
        platform.shutdown()
