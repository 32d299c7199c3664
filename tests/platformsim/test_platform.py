"""Tests for the ServerlessPlatform services."""

from __future__ import annotations

import pytest

from repro.common.errors import FunctionNotRegistered, SchedulingError
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile
from repro.platformsim.platform import ServerlessPlatform
from repro.workload.trace import TraceRecord


@pytest.fixture
def platform(env, machine):
    return ServerlessPlatform(env, machine, DEFAULT_CALIBRATION)


def make_spec(function_id="f"):
    return FunctionSpec(function_id=function_id, kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(10.0))


class TestRegistration:
    def test_register_and_submit(self, env, platform):
        platform.register_function(make_spec())
        invocation = platform.submit(TraceRecord(0.0, "f", payload=1))
        assert invocation.invocation_id == "inv-0"
        assert invocation.arrival_ms == env.now
        assert len(platform.request_queue) == 1

    def test_duplicate_registration_rejected(self, platform):
        platform.register_function(make_spec())
        with pytest.raises(SchedulingError):
            platform.register_function(make_spec())

    def test_unknown_function_rejected(self, platform):
        with pytest.raises(FunctionNotRegistered):
            platform.submit(TraceRecord(0.0, "ghost"))


class TestPlatformWork:
    def test_dispatch_work_is_gil_serialised(self, env, platform):
        """Two concurrent decisions cannot overlap: the second starts only
        after the first finishes (the platform process's GIL)."""
        finished = []

        def decider(tag):
            yield platform.dispatch_work()
            finished.append((tag, env.now))

        env.process(decider("a"))
        env.process(decider("b"))
        env.run()
        per_decision = (DEFAULT_CALIBRATION.scheduling_cpu_work_per_decision_ms
                        + DEFAULT_CALIBRATION.scheduling_cpu_work_per_invocation_ms)
        assert finished[0] == ("a", pytest.approx(per_decision))
        assert finished[1] == ("b", pytest.approx(2 * per_decision))

    def test_dispatch_work_scales_with_invocation_count(self, env, platform):
        times = []

        def decider():
            yield platform.dispatch_work(invocation_count=100)
            times.append(env.now)

        env.process(decider())
        env.run()
        expected = (DEFAULT_CALIBRATION.scheduling_cpu_work_per_decision_ms
                    + 100 * DEFAULT_CALIBRATION
                    .scheduling_cpu_work_per_invocation_ms)
        assert times[0] == pytest.approx(expected)

    def test_platform_group_capped_at_one_core(self, platform, machine):
        group = machine.cpu.group(ServerlessPlatform.PLATFORM_GROUP)
        assert group.cap == 1.0


class TestContainers:
    def test_cold_start_then_warm_hit(self, env, platform):
        spec = make_spec()
        platform.register_function(spec)
        outcome = []

        def proc():
            container, cold = yield from platform.acquire_container(
                spec, concurrency_limit=None, with_multiplexer=False)
            outcome.append(cold)
            platform.release_container(container)
            again, cold2 = yield from platform.acquire_container(
                spec, concurrency_limit=None, with_multiplexer=False)
            outcome.append(cold2)
            assert again is container

        env.run_process(env.process(proc()))
        assert outcome[0] > 0.0
        assert outcome[1] == 0.0
        assert platform.provisioned_containers() == 1

    def test_multiplexer_attached_when_requested(self, env, platform):
        spec = make_spec()
        platform.register_function(spec)

        def proc():
            container, _cold = yield from platform.cold_start(
                spec, concurrency_limit=None, with_multiplexer=True)
            return container

        container = env.run_process(env.process(proc()))
        assert container.multiplexer is not None

    def test_try_acquire_warm_is_nonblocking(self, platform):
        assert platform.try_acquire_warm(make_spec()) is None


class TestCompletion:
    def test_listeners_see_each_final_outcome(self, platform):
        platform.register_function(make_spec())
        seen = []
        platform.completion_listeners.append(seen.append)
        inv1 = platform.submit(TraceRecord(0.0, "f"))
        inv2 = platform.submit(TraceRecord(0.0, "f"))
        platform.note_completed(inv1)
        assert seen == [inv1]
        platform.note_completed(inv2)
        assert seen == [inv1, inv2]
