"""Tests for window collection and the replay gateway."""

from __future__ import annotations

import pytest

from repro.baselines.kraken import KrakenConfig, KrakenParameters
from repro.common.errors import ConfigurationError
from repro.common.window import DispatchWindow
from repro.core.config import FaaSBatchConfig
from repro.gateway.server import GatewayConfig
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile
from repro.platformsim.gateway import ReplayInjector
from repro.platformsim.platform import ServerlessPlatform
from repro.platformsim.windows import collect_window
from repro.sim.primitives import Store
from repro.workload.trace import Trace, TraceRecord
from tests.gateway.virtual_loop import replay, virtual_gateway


WINDOW = 100.0


def collect_batch(env, queue, window_ms):
    """Generator: one window of *queue* as ``(members, opened_at)``; every
    item is one function's."""
    [group] = yield from collect_window(env, queue, DispatchWindow(window_ms),
                                        lambda _item: "f")
    return group.members, group.opened_at


class TestCollectWindow:
    def collect(self, env, window_ms, feed):
        queue: Store[str] = Store(env)
        results = []

        def feeder():
            now = 0.0
            for at, item in feed:
                yield env.timeout(at - now)
                now = at
                queue.put(item)

        def collector():
            batch, opened = yield from collect_batch(env, queue, window_ms)
            results.append((env.now, batch))
            assert opened == env.now - window_ms

        env.process(feeder())
        env.process(collector())
        env.run()
        return results

    def test_collects_items_within_window(self, env):
        results = self.collect(env, 100.0,
                               [(0.0, "a"), (50.0, "b"), (99.0, "c")])
        assert results == [(100.0, ["a", "b", "c"])]

    def test_waits_for_first_item(self, env):
        results = self.collect(env, 100.0, [(500.0, "a")])
        assert results == [(600.0, ["a"])]

    def test_item_after_window_not_swallowed(self, env):
        queue: Store[str] = Store(env)
        batches = []

        def feeder():
            queue.put("a")
            yield env.timeout(150.0)
            queue.put("late")

        def collector():
            batch, _ = yield from collect_batch(env, queue, WINDOW)
            batches.append(batch)
            batch, _ = yield from collect_batch(env, queue, WINDOW)
            batches.append(batch)

        env.process(feeder())
        env.process(collector())
        env.run()
        assert batches == [["a"], ["late"]]

    def test_simultaneous_item_and_deadline_kept(self, env):
        """An item arriving at the exact window boundary is not lost."""
        queue: Store[str] = Store(env)
        batches = []

        def feeder():
            queue.put("a")
            yield env.timeout(100.0)
            queue.put("boundary")

        def collector():
            batch, _ = yield from collect_batch(env, queue, WINDOW)
            batches.append(batch)
            if len(queue):
                # Anything left is picked up by a following window.
                more, _ = yield from collect_batch(env, queue, WINDOW)
                batches.append(more)

        env.process(feeder())
        env.process(collector())
        env.run()
        flattened = [item for batch in batches for item in batch]
        assert sorted(flattened) == ["a", "boundary"]

    def test_groups_follow_first_arrival_per_function(self, env):
        queue: Store[str] = Store(env)
        groups = []

        def feeder():
            for item in ("b1", "a1", "b2", "a2"):
                queue.put(item)
                yield env.timeout(10.0)

        def collector():
            groups.extend((yield from collect_window(
                env, queue, DispatchWindow(WINDOW), lambda item: item[0])))

        env.process(feeder())
        env.process(collector())
        env.run()
        assert groups == [("b", ["b1", "b2"], 0.0, 100.0),
                          ("a", ["a1", "a2"], 0.0, 100.0)]

    def test_negative_window_rejected(self):
        """Each entry point rejects a negative window at construction."""
        parameters = KrakenParameters(slo_ms={"f": 100.0},
                                      mean_execution_ms={"f": 10.0})
        for build in (lambda: FaaSBatchConfig(window_ms=-1.0),
                      lambda: KrakenConfig(parameters=parameters,
                                           window_ms=-1.0),
                      lambda: GatewayConfig(window_seconds=-0.001)):
            with pytest.raises(ConfigurationError,
                               match=r"window_(ms|seconds) must be"):
                build()


class TestArrivalAtTheCloseInstant:
    """The tie rule of :class:`~repro.common.window.DispatchWindow`, pinned
    for both drivers: an arrival at exactly the close instant joins the
    closing window when it is handed over before the close, and opens the
    next window when it is handed over after."""

    def sim_windows(self, env, late_feeder):
        queue: Store[str] = Store(env)
        windows = []

        def feeder():
            queue.put("a")
            yield env.timeout(WINDOW)
            if not late_feeder:
                queue.put("boundary")

        def late():
            # Due at the close instant only after the close timer fired:
            # a zero-delay step that runs after the close it triggered.
            yield env.timeout(WINDOW / 2)
            yield env.timeout(WINDOW / 2)
            yield env.timeout(0.0)
            queue.put("boundary")

        def collector():
            while True:
                windows.append((yield from collect_window(
                    env, queue, DispatchWindow(WINDOW), lambda _item: "f")))

        env.process(feeder())
        if late_feeder:
            env.process(late())
        env.process(collector())
        env.run(until=1_000.0)
        return [[(group.members, group.opened_at, group.closed_at)
                 for group in window] for window in windows]

    def gateway_windows(self, late_arrival):
        window_s = WINDOW / 1000.0
        with virtual_gateway(window_s) as (loop, gateway, platform):
            if late_arrival:
                # Scheduled once the window is open, after its close timer.
                loop.call_at(window_s / 2, loop.call_at, window_s,
                             gateway.submit, "echo", "boundary",
                             lambda _: None)
                replay(loop, gateway, [(0.0, "echo", "a")], until=1.0)
            else:
                replay(loop, gateway, [(0.0, "echo", "a"),
                                       (window_s, "echo", "boundary")],
                       until=1.0)
        return [(group.payloads, group.at) for group in platform.dispatched]

    def test_sim_arrival_handed_over_first_joins(self, env):
        assert self.sim_windows(env, late_feeder=False) == [
            [(["a", "boundary"], 0.0, WINDOW)]]

    def test_sim_arrival_handed_over_after_the_close_opens_the_next(
            self, env):
        assert self.sim_windows(env, late_feeder=True) == [
            [(["a"], 0.0, WINDOW)], [(["boundary"], WINDOW, 2 * WINDOW)]]

    def test_gateway_arrival_handed_over_first_joins(self):
        assert self.gateway_windows(late_arrival=False) == [
            (["a", "boundary"], WINDOW / 1000.0)]

    def test_gateway_arrival_handed_over_after_the_close_opens_the_next(
            self):
        assert self.gateway_windows(late_arrival=True) == [
            (["a"], WINDOW / 1000.0), (["boundary"], 2 * WINDOW / 1000.0)]


class TestGateway:
    def test_replay_preserves_timestamps(self, env, machine):
        platform = ServerlessPlatform(env, machine, DEFAULT_CALIBRATION)
        platform.register_function(FunctionSpec(
            function_id="f", kind=FunctionKind.CPU,
            profile_factory=lambda p: cpu_profile(1.0)))
        trace = Trace([TraceRecord(10.0, "f"), TraceRecord(250.0, "f"),
                       TraceRecord(250.0, "f")])
        ReplayInjector(env, trace, platform.submit)
        env.run()
        assert len(platform.request_queue) == 3
        arrivals = [platform.request_queue.get().value.arrival_ms
                    for _ in range(3)]
        assert arrivals == [10.0, 250.0, 250.0]
