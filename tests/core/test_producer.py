"""Direct tests for the Inline-Parallel Producer."""

from __future__ import annotations

import pytest

from repro.core.mapper import FunctionGroup
from repro.core.producer import InlineParallelProducer
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.function import FunctionKind, FunctionSpec, Invocation
from repro.model.workprofile import cpu_profile
from repro.platformsim.platform import ServerlessPlatform
from repro.sim.machine import Machine


def make_spec(cpu_limit=None):
    return FunctionSpec(function_id="f", kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(20.0),
                        cpu_limit=cpu_limit)


def make_group(spec, size, arrival_ms=0.0):
    invocations = tuple(
        Invocation(f"inv-{i}", spec, payload=None, arrival_ms=arrival_ms)
        for i in range(size))
    return FunctionGroup(function=spec, invocations=invocations,
                         window_start_ms=arrival_ms,
                         window_end_ms=arrival_ms)


@pytest.fixture
def platform(env):
    machine = Machine(env)
    platform = ServerlessPlatform(env, machine, DEFAULT_CALIBRATION)
    return platform


class TestExecuteGroup:
    def run_group(self, env, platform, producer, group, warm=None):
        process = env.process(
            producer.execute_group(platform, group, warm_container=warm))
        env.run_process(process)

    def test_cold_path_counts_and_completes(self, env, platform):
        spec = make_spec()
        platform.register_function(spec)
        completed = []
        platform.completion_listeners.append(completed.append)
        producer = InlineParallelProducer()
        group = make_group(spec, 5)
        self.run_group(env, platform, producer, group)
        assert producer.groups_executed == 1
        assert producer.invocations_executed == 5
        assert len(completed) == 5
        for invocation in group.invocations:
            assert invocation.latency.cold_start_ms > 0.0

    def test_warm_container_path_skips_cold_start(self, env, platform):
        spec = make_spec()
        platform.register_function(spec)
        producer = InlineParallelProducer()
        # First group cold-starts; second reuses the released container.
        first = make_group(spec, 2)
        self.run_group(env, platform, producer, first)
        warm = platform.try_acquire_warm(spec)
        assert warm is not None
        second = make_group(spec, 3, arrival_ms=env.now)
        self.run_group(env, platform, producer, second, warm=warm)
        for invocation in second.invocations:
            assert invocation.latency.cold_start_ms == 0.0
        assert platform.provisioned_containers() == 1

    def test_container_returns_to_pool_after_group(self, env, platform):
        spec = make_spec()
        platform.register_function(spec)
        producer = InlineParallelProducer()
        self.run_group(env, platform, producer, make_group(spec, 2))
        assert platform.pool.idle_count("f") == 1

    def test_serial_mode_uses_concurrency_one(self, env, platform):
        spec = make_spec()
        platform.register_function(spec)
        producer = InlineParallelProducer(inline_parallel=False)
        group = make_group(spec, 3)
        self.run_group(env, platform, producer, group)
        queuing = sorted(i.latency.queuing_ms for i in group.invocations)
        assert queuing[0] == pytest.approx(0.0)
        assert queuing[-1] > 0.0

    def test_cpu_limit_flows_to_container_group(self, env, platform):
        spec = make_spec(cpu_limit=2.0)
        platform.register_function(spec)
        producer = InlineParallelProducer()
        group = make_group(spec, 1)
        self.run_group(env, platform, producer, group)
        container_id = group.invocations[0].container_id
        cpu_group = platform.machine.cpu.group(f"cgroup:{container_id}")
        assert cpu_group.cap == 2.0

    def test_multiplexer_disabled_leaves_container_bare(self, env, platform):
        spec = make_spec()
        platform.register_function(spec)
        producer = InlineParallelProducer(multiplex_resources=False)
        group = make_group(spec, 1)
        self.run_group(env, platform, producer, group)
        container = platform.docker.containers.list(all=True)[0]
        assert container.multiplexer is None
