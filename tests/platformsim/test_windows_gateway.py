"""Tests for window collection and the replay gateway."""

from __future__ import annotations

import pytest

from repro.core.windowing import FixedWindow, WindowPolicy
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile
from repro.platformsim.gateway import ReplayInjector
from repro.platformsim.platform import ServerlessPlatform
from repro.platformsim.windows import collect_window
from repro.sim.primitives import Store
from repro.workload.trace import Trace, TraceRecord


WINDOW = FixedWindow(100.0)


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
            batch, opened = yield from collect_window(
                env, queue, FixedWindow(window_ms))
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
            batch, _ = yield from collect_window(env, queue, WINDOW)
            batches.append(batch)
            batch, _ = yield from collect_window(env, queue, WINDOW)
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
            batch, _ = yield from collect_window(env, queue, WINDOW)
            batches.append(batch)
            if len(queue) or queue.waiting_getters == 0:
                # Anything left is picked up by a following window.
                more, _ = yield from collect_window(env, queue, WINDOW)
                batches.append(more)

        env.process(feeder())
        env.process(collector())
        env.run()
        flattened = [item for batch in batches for item in batch]
        assert sorted(flattened) == ["a", "boundary"]

    def test_negative_window_rejected(self, env):
        with pytest.raises(ValueError):
            FixedWindow(-1.0)

        class Negative(WindowPolicy):
            def window_ms(self, key=None):
                return -1.0

        # A policy's answer is checked too, when the window opens.
        queue: Store[str] = Store(env)
        queue.put("a")
        env.process(collect_window(env, queue, Negative()))
        with pytest.raises(ValueError, match="negative window"):
            env.run()


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
        arrivals = [platform.request_queue.get_nowait().arrival_ms
                    for _ in range(3)]
        assert arrivals == [10.0, 250.0, 250.0]
