"""Tests for the simulated container: lifecycle, execution, multiplexing."""

from __future__ import annotations

import pytest

from repro.common.errors import ContainerStateError
from repro.core.multiplexer import SimResourceMultiplexer
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model import container as container_module
from repro.model.container import ContainerState, SimContainer
from repro.model.function import FunctionKind, FunctionSpec, Invocation
from repro.model.workprofile import cpu_profile, io_profile
from repro.sim.kernel import Environment
from repro.sim.machine import Machine

CAL = DEFAULT_CALIBRATION


def make_spec(function_id="f", work_ms=50.0):
    return FunctionSpec(function_id=function_id, kind=FunctionKind.CPU,
                        profile_factory=lambda payload: cpu_profile(work_ms))


def make_io_spec(function_id="io"):
    return FunctionSpec(
        function_id=function_id, kind=FunctionKind.IO,
        profile_factory=lambda payload: io_profile(
            factory="boto3", args_hash=1, blob_wait_ms=10.0))


def make_container(env, machine, spec, **kwargs):
    return SimContainer(env=env, machine=machine, container_id="c-0",
                        function=spec, calibration=CAL, **kwargs)


def make_invocation(spec, arrival_ms=0.0, index=0):
    return Invocation(invocation_id=f"inv-{index}", function=spec,
                      payload=None, arrival_ms=arrival_ms)


def start_container(env, container):
    process = env.process(container.start())
    return env.run_process(process)


class TestLifecycle:
    def test_cold_start_duration(self, env, machine):
        container = make_container(env, machine, make_spec())
        cold_ms = start_container(env, container)
        # Fixed provisioning latency + uncontended CPU work.
        expected = CAL.cold_start_latency_ms + CAL.cold_start_cpu_work_ms
        assert cold_ms == pytest.approx(expected)
        assert container.state is ContainerState.WARM
        assert container.is_idle

    def test_cold_start_allocates_memory(self, env, machine):
        container = make_container(env, machine, make_spec())
        start_container(env, container)
        assert machine.memory.used_mb == pytest.approx(
            CAL.container_memory_mb)

    def test_code_memory_added(self, env, machine, monkeypatch):
        monkeypatch.setattr(container_module, "CODE_MEMORY_MB", 100.0)
        spec = FunctionSpec(function_id="f", kind=FunctionKind.CPU,
                            profile_factory=lambda p: cpu_profile(1.0))
        container = make_container(env, machine, spec)
        start_container(env, container)
        assert machine.memory.used_mb == pytest.approx(
            CAL.container_memory_mb + 100.0)

    def test_double_start_rejected(self, env, machine):
        container = make_container(env, machine, make_spec())
        start_container(env, container)
        with pytest.raises(ContainerStateError):
            env.run_process(env.process(container.start()))

    def test_stop_releases_resources(self, env, machine):
        container = make_container(env, machine, make_spec())
        start_container(env, container)
        container.stop()
        assert container.state is ContainerState.STOPPED
        assert machine.memory.used_mb == pytest.approx(0.0)

    def test_double_stop_rejected(self, env, machine):
        container = make_container(env, machine, make_spec())
        start_container(env, container)
        container.stop()
        with pytest.raises(ContainerStateError):
            container.stop()

    def test_cannot_execute_before_start(self, env, machine):
        spec = make_spec()
        container = make_container(env, machine, spec)
        with pytest.raises(ContainerStateError):
            container.execute_batch([make_invocation(spec)])

    def test_invalid_concurrency_rejected(self, env, machine):
        with pytest.raises(ValueError):
            make_container(env, machine, make_spec(), concurrency_limit=0)


class TestExecution:
    def run_batch(self, env, machine, spec, invocations, **kwargs):
        container = make_container(env, machine, spec, **kwargs)
        start_container(env, container)
        for invocation in invocations:
            invocation.mark_dispatched(env.now, container.cold_start_ms)
        done = env.process(self._await_batch(container, invocations))
        env.run_process(done)
        return container

    @staticmethod
    def _await_batch(container, invocations):
        yield container.execute_batch(invocations)

    def test_single_invocation_executes(self, env, machine):
        spec = make_spec(work_ms=50.0)
        invocation = make_invocation(spec)
        container = self.run_batch(env, machine, spec, [invocation])
        assert invocation.completed_ms is not None
        # overhead (1 core-ms) + work (50 core-ms), uncontended.
        assert invocation.latency.execution_ms == pytest.approx(51.0)
        assert container.invocations_served == 1

    def test_parallel_batch_shares_container(self, env, machine):
        spec = make_spec(work_ms=50.0)
        invocations = [make_invocation(spec, index=i) for i in range(4)]
        self.run_batch(env, machine, spec, invocations)
        # 4 x 51 core-ms on 32 idle cores: all run truly in parallel.
        for invocation in invocations:
            assert invocation.latency.execution_ms == pytest.approx(51.0)
            assert invocation.latency.queuing_ms == 0.0

    def test_serial_limit_accumulates_queuing(self, env, machine):
        spec = make_spec(work_ms=50.0)
        invocations = [make_invocation(spec, index=i) for i in range(3)]
        self.run_batch(env, machine, spec, invocations,
                       concurrency_limit=1)
        queuing = sorted(i.latency.queuing_ms for i in invocations)
        assert queuing[0] == pytest.approx(0.0)
        assert queuing[1] == pytest.approx(51.0)
        assert queuing[2] == pytest.approx(102.0)

    def test_cpu_limit_slows_batch(self, env, machine, monkeypatch):
        monkeypatch.setattr(container_module, "CPU_LIMIT", 1.0)
        spec = make_spec(work_ms=50.0)
        invocations = [make_invocation(spec, index=i) for i in range(2)]
        self.run_batch(env, machine, spec, invocations)
        # Two 51 core-ms tasks sharing the container's single core.
        for invocation in invocations:
            assert invocation.latency.execution_ms == pytest.approx(102.0)

    def test_empty_batch_rejected(self, env, machine):
        spec = make_spec()
        container = make_container(env, machine, spec)
        start_container(env, container)
        with pytest.raises(ValueError):
            container.execute_batch([])

    def test_foreign_function_rejected(self, env, machine):
        spec = make_spec("f")
        other = make_spec("g")
        container = make_container(env, machine, spec)
        start_container(env, container)
        with pytest.raises(ContainerStateError):
            container.execute_batch([make_invocation(other)])

    def test_handler_failure_is_isolated_by_default(self, env, machine):
        """A broken invocation fails alone; the rest of the batch and the
        container survive (real platforms return a 500 for that request)."""
        calls = []

        def sometimes_broken(payload):
            calls.append(payload)
            if payload == "bad":
                raise RuntimeError("bad profile")
            return cpu_profile(10.0)

        spec = FunctionSpec(function_id="f", kind=FunctionKind.CPU,
                            profile_factory=sometimes_broken)
        bad = Invocation("inv-bad", spec, payload="bad", arrival_ms=0.0)
        good = Invocation("inv-good", spec, payload="ok", arrival_ms=0.0)
        container = make_container(env, machine, spec)
        start_container(env, container)
        for invocation in (bad, good):
            invocation.mark_dispatched(env.now, container.cold_start_ms)
        done = container.execute_batch([bad, good])
        env.run()
        assert done.triggered and done.ok
        assert bad.error is not None
        assert bad.state.value == "failed"
        assert good.state.value == "completed"
        assert container.invocations_failed == 1
        assert container.invocations_served == 1
        assert container.is_idle


class TestClientCreation:
    def test_without_multiplexer_every_invocation_builds(self, env, machine):
        spec = make_io_spec()
        invocations = [make_invocation(spec, index=i) for i in range(3)]
        runner = TestExecution()
        container = runner.run_batch(env, machine, spec, invocations)
        assert container.clients_created == 3
        assert container.client_memory_mb == pytest.approx(
            3 * CAL.client_memory_mb)

    def test_with_multiplexer_one_build_serves_all(self, env, machine):
        spec = make_io_spec()
        invocations = [make_invocation(spec, index=i) for i in range(5)]
        runner = TestExecution()
        container = runner.run_batch(
            env, machine, spec, invocations,
            multiplexer=SimResourceMultiplexer(env))
        assert container.clients_created == 1
        stats = container.multiplexer.stats
        assert stats.misses == 1
        assert stats.hits + stats.in_flight_waits == 4

    def test_multiplexed_batch_is_much_faster_once_warm(self, env, machine):
        """After the first build, a whole batch executes in the narrow
        10-100 ms band of Fig. 12(c) instead of paying creation costs."""
        spec = make_io_spec()
        plain = [make_invocation(spec, index=i) for i in range(5)]
        runner = TestExecution()
        runner.run_batch(env, machine, spec, plain)

        env2 = Environment()
        machine2 = Machine(env2)
        runner2 = TestExecution()
        container2 = make_container(
            env2, machine2, spec,
            multiplexer=SimResourceMultiplexer(env2))
        start = env2.process(container2.start())
        env2.run_process(start)
        # Warm the cache with one invocation (pays import + creation).
        warmup = make_invocation(spec, index=100, arrival_ms=env2.now)
        warmup.mark_dispatched(env2.now, 0.0)
        env2.run_process(env2.process(
            runner2._await_batch(container2, [warmup])))

        shared = [make_invocation(spec, index=i, arrival_ms=env2.now)
                  for i in range(5)]
        for invocation in shared:
            invocation.mark_dispatched(env2.now, 0.0)
        done = env2.process(runner2._await_batch(container2, shared))
        env2.run_process(done)

        worst_plain = max(i.latency.execution_ms for i in plain)
        worst_shared = max(i.latency.execution_ms for i in shared)
        assert worst_shared < 100.0  # the paper's 10-100 ms band
        assert worst_shared < worst_plain / 5.0
        assert container2.clients_created == 1

    def test_sdk_import_charged_once_per_container(self, env, machine):
        spec = make_io_spec()
        first = [make_invocation(spec, index=0)]
        runner = TestExecution()
        container = runner.run_batch(env, machine, spec, first)
        first_execution = first[0].latency.execution_ms

        second = make_invocation(spec, index=1, arrival_ms=env.now)
        second.mark_dispatched(env.now, 0.0)
        done = env.process(runner._await_batch(container, [second]))
        env.run_process(done)
        # The second invocation skips the SDK import: much faster.
        assert second.latency.execution_ms < first_execution - \
            CAL.sdk_import_work_ms / 2.0
