"""Tests for the gateway's dispatch window: one window over all functions,
closed by one timer into per-function groups."""

from __future__ import annotations

import asyncio

from repro.common.window import DispatchWindow
from tests.gateway.virtual_loop import replay, virtual_gateway


class TestFunctionBatcher:
    """The gateway batches each function's requests of one window."""

    def test_window_collects_one_batch(self):
        with virtual_gateway(0.01) as (loop, gateway, platform):
            for index in range(4):
                loop.call_soon(gateway.submit, "echo", index, lambda _: None)
            loop.run_until_complete(asyncio.sleep(0.005))
            assert gateway.stats()["queue_depths"] == {"echo": 4}
            assert platform.dispatched == []  # window still open
            loop.run_until_complete(asyncio.sleep(0.05))
            dispatched = platform.dispatched
            depths = gateway.stats()["queue_depths"]
        assert len(dispatched) == 1
        assert dispatched[0].function == "echo"
        assert dispatched[0].payloads == [0, 1, 2, 3]
        assert depths == {"echo": 0}

    def test_requests_after_flush_open_new_window(self):
        with virtual_gateway(0.01) as (loop, gateway, platform):
            replay(loop, gateway, [(0.0, "echo", 0), (0.05, "echo", 1)],
                   until=0.1)
        assert [len(group.payloads) for group in platform.dispatched] \
            == [1, 1]

    def test_one_window_holds_every_function(self):
        arrivals = [(0.0, "echo", 0), (0.004, "io", 1), (0.008, "echo", 2),
                    (0.012, "io", 3)]
        with virtual_gateway(0.01, functions=("echo", "io")) as (
                loop, gateway, platform):
            replay(loop, gateway, arrivals, until=0.1)
        assert [(group.at, group.function, group.payloads)
                for group in platform.dispatched] == [
            (0.01, "echo", [0, 2]), (0.01, "io", [1]), (0.022, "io", [3])]

    def test_close_flushes_pending_immediately(self):
        with virtual_gateway(30.0) as (loop, gateway, platform):
            gateway.submit("echo", 0, lambda _: None)
            gateway.close()
        assert [len(group.payloads) for group in platform.dispatched] == [1]

    def test_evict_oldest_pops_head(self):
        window = DispatchWindow(0.01)
        for index in range(3):
            window.arrive(index, "echo", 0.0)
        victim = window.evict_oldest("echo")
        assert victim == 0
        [group] = window.close(0.01)
        assert group.members == [1, 2]

    def test_evicting_last_request_dispatches_nothing(self):
        window = DispatchWindow(0.01)
        window.arrive(0, "echo", 0.0)
        window.evict_oldest("echo")
        assert window.close(0.01) == []

    def test_zero_window_closes_at_the_opening_instant(self):
        window = DispatchWindow(0.0)
        assert window.arrive("a", "echo", 5.0) == 5.0
        assert window.close(5.0) == [("echo", ["a"], 5.0, 5.0)]

