"""Tests for the Invoke Mapper (window batching + per-function grouping)."""

from __future__ import annotations

import pytest

from repro.core.mapper import FunctionGroup, InvokeMapper
from repro.model.function import FunctionKind, FunctionSpec, Invocation
from repro.model.workprofile import cpu_profile
from repro.sim.primitives import Store


def make_spec(function_id):
    return FunctionSpec(function_id=function_id, kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(10.0))


def make_invocation(spec, index, arrival_ms=0.0):
    return Invocation(invocation_id=f"inv-{spec.function_id}-{index}",
                      function=spec, payload=None, arrival_ms=arrival_ms)


SPEC_A = make_spec("a")
SPEC_B = make_spec("b")


class TestFunctionGroup:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            FunctionGroup(function=SPEC_A, invocations=(),
                          window_start_ms=0.0, window_end_ms=1.0)

    def test_foreign_invocation_rejected(self):
        with pytest.raises(ValueError):
            FunctionGroup(function=SPEC_A,
                          invocations=(make_invocation(SPEC_B, 0),),
                          window_start_ms=0.0, window_end_ms=1.0)

    def test_properties(self):
        invocations = tuple(make_invocation(SPEC_A, i) for i in range(3))
        group = FunctionGroup(function=SPEC_A, invocations=invocations,
                              window_start_ms=0.0, window_end_ms=200.0)
        assert group.size == 3
        assert group.function_id == "a"
        assert group.cpu_limit is None


class TestGrouping:
    def test_groups_by_function(self):
        invocations = [make_invocation(SPEC_A, 0), make_invocation(SPEC_B, 0),
                       make_invocation(SPEC_A, 1)]
        groups = InvokeMapper.group_invocations(invocations, 0.0, 200.0)
        by_id = {g.function_id: g for g in groups}
        assert set(by_id) == {"a", "b"}
        assert by_id["a"].size == 2
        assert by_id["b"].size == 1

    def test_order_preserved_within_group(self):
        invocations = [make_invocation(SPEC_A, i) for i in range(5)]
        groups = InvokeMapper.group_invocations(invocations, 0.0, 200.0)
        assert [i.invocation_id for i in groups[0].invocations] == \
            [f"inv-a-{i}" for i in range(5)]


class TestWindowCollection:
    def run_mapper(self, env, window_ms, arrivals):
        """arrivals: list of (delay_ms, invocation)."""
        queue: Store[Invocation] = Store(env)
        mapper = InvokeMapper(window_ms=window_ms)
        collected = []

        def feeder():
            now = 0.0
            for delay, invocation in arrivals:
                yield env.timeout(delay - now)
                now = delay
                queue.put(invocation)

        def collector():
            groups = yield from mapper.collect_groups(env, queue)
            collected.append((env.now, groups))

        env.process(feeder())
        env.process(collector())
        env.run()
        return collected

    def test_single_window_batches_concurrent_arrivals(self, env):
        arrivals = [(0.0, make_invocation(SPEC_A, 0)),
                    (50.0, make_invocation(SPEC_A, 1)),
                    (150.0, make_invocation(SPEC_B, 0))]
        collected = self.run_mapper(env, 200.0, arrivals)
        end_time, groups = collected[0]
        assert end_time == pytest.approx(200.0)
        assert sorted(g.function_id for g in groups) == ["a", "b"]

    def test_window_starts_at_first_arrival(self, env):
        arrivals = [(300.0, make_invocation(SPEC_A, 0)),
                    (450.0, make_invocation(SPEC_A, 1))]
        collected = self.run_mapper(env, 200.0, arrivals)
        end_time, groups = collected[0]
        assert end_time == pytest.approx(500.0)
        assert groups[0].size == 2
        assert groups[0].window_end_ms == pytest.approx(500.0)

    def test_window_start_stamped_at_first_arrival_not_collector_start(
            self, env):
        # Regression: the mapper used to stamp window_start before blocking
        # on the queue, so a late first arrival produced a group claiming
        # its window opened when the collector *started waiting* (t=0 here)
        # rather than when the burst actually began.
        arrivals = [(5_000.0, make_invocation(SPEC_A, 0)),
                    (5_050.0, make_invocation(SPEC_A, 1))]
        collected = self.run_mapper(env, 200.0, arrivals)
        _end, groups = collected[0]
        assert groups[0].window_start_ms == pytest.approx(5_000.0)
        assert groups[0].window_end_ms == pytest.approx(5_200.0)

    def test_late_arrival_left_for_next_window(self, env):
        arrivals = [(0.0, make_invocation(SPEC_A, 0)),
                    (250.0, make_invocation(SPEC_A, 1))]
        collected = self.run_mapper(env, 200.0, arrivals)
        _end, groups = collected[0]
        assert groups[0].size == 1  # the 250 ms arrival missed the window

    def test_zero_window_takes_single_invocation(self, env):
        arrivals = [(0.0, make_invocation(SPEC_A, 0)),
                    (1.0, make_invocation(SPEC_A, 1))]
        collected = self.run_mapper(env, 0.0, arrivals)
        _end, groups = collected[0]
        assert groups[0].size == 1

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            InvokeMapper(window_ms=-1.0)
