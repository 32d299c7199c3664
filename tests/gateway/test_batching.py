"""Tests for the event-loop dispatch-window queues."""

from __future__ import annotations

import asyncio

from repro.gateway.batching import FunctionBatcher, PendingRequest


def make_request(loop: asyncio.AbstractEventLoop,
                 index: int) -> PendingRequest:
    return PendingRequest(request_id=f"req-{index}", function="echo",
                          payload=index, on_response=None,
                          enqueued_at=loop.time())


def make_batcher(loop, dispatched, window_seconds=0.01) -> FunctionBatcher:
    return FunctionBatcher(
        function="echo", window_seconds=window_seconds,
        dispatch=lambda name, batch: dispatched.append((name, batch)),
        loop=loop)


class TestFunctionBatcher:
    def test_window_collects_one_batch(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            dispatched = []
            batcher = make_batcher(loop, dispatched)
            for index in range(4):
                batcher.enqueue(make_request(loop, index))
            assert batcher.depth == 4
            assert dispatched == []  # window still open
            await asyncio.sleep(0.05)
            return dispatched, batcher

        dispatched, batcher = asyncio.run(scenario())
        assert len(dispatched) == 1
        name, batch = dispatched[0]
        assert name == "echo"
        assert [r.payload for r in batch] == [0, 1, 2, 3]
        assert batcher.depth == 0
        assert batcher.windows_flushed == 1

    def test_requests_after_flush_open_new_window(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            dispatched = []
            batcher = make_batcher(loop, dispatched)
            batcher.enqueue(make_request(loop, 0))
            await asyncio.sleep(0.05)
            batcher.enqueue(make_request(loop, 1))
            await asyncio.sleep(0.05)
            return dispatched

        dispatched = asyncio.run(scenario())
        assert [len(batch) for _, batch in dispatched] == [1, 1]

    def test_evict_oldest_pops_head(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            dispatched = []
            batcher = make_batcher(loop, dispatched)
            for index in range(3):
                batcher.enqueue(make_request(loop, index))
            victim = batcher.evict_oldest()
            assert victim.payload == 0
            await asyncio.sleep(0.05)
            return dispatched

        dispatched = asyncio.run(scenario())
        [(_, batch)] = dispatched
        assert [r.payload for r in batch] == [1, 2]

    def test_evicting_last_request_cancels_timer(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            dispatched = []
            batcher = make_batcher(loop, dispatched)
            batcher.enqueue(make_request(loop, 0))
            batcher.evict_oldest()
            await asyncio.sleep(0.05)
            return dispatched, batcher

        dispatched, batcher = asyncio.run(scenario())
        assert dispatched == []
        assert batcher.windows_flushed == 0

    def test_close_flushes_pending_immediately(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            dispatched = []
            batcher = make_batcher(loop, dispatched, window_seconds=30.0)
            batcher.enqueue(make_request(loop, 0))
            batcher.close()
            return dispatched

        dispatched = asyncio.run(scenario())
        assert [len(batch) for _, batch in dispatched] == [1]


class TestBatcherWindowPolicy:
    def test_policy_sizes_the_window_per_function(self):
        from repro.core.windowing import AdaptiveWindow, FixedWindow

        async def scenario():
            loop = asyncio.get_event_loop()
            dispatched = []
            policy = AdaptiveWindow(min_ms=1.0, max_ms=50.0)
            batcher = FunctionBatcher(
                function="echo", window_seconds=0.05, policy=policy,
                dispatch=lambda name, batch: dispatched.append(batch),
                loop=loop)
            # Unseen key: the policy starts at its max window.
            assert batcher.current_window_seconds() == 0.05
            for index in range(6):
                batcher.enqueue(make_request(loop, index))
            # The burst taught the policy a near-zero inter-arrival gap,
            # so the next window would be the floor, not the max.
            assert batcher.current_window_seconds() < 0.05
            fixed = FunctionBatcher(
                function="echo", window_seconds=0.05,
                policy=FixedWindow(20.0),
                dispatch=lambda name, batch: None, loop=loop)
            assert fixed.current_window_seconds() == 0.02
            await asyncio.sleep(0.1)
            return dispatched

        dispatched = asyncio.run(scenario())
        assert [r.payload for batch in dispatched for r in batch] \
            == [0, 1, 2, 3, 4, 5]

    def test_no_policy_keeps_static_window(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            batcher = make_batcher(loop, [], window_seconds=0.03)
            assert batcher.current_window_seconds() == 0.03
            return True

        assert asyncio.run(scenario())
