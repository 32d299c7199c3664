"""FaultInjector behaviour: each fault kind, end to end where possible."""

from __future__ import annotations

import pytest

from repro.baselines import SchedulerBuild, VanillaScheduler, build_scheduler
from repro.common.errors import ColdStartFailed, ContainerCrashed, OomKilled
from repro.core import FaaSBatchConfig, FaaSBatchScheduler
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ColdStartFailureFault,
    ContainerCrashFault,
    DispatchErrorFault,
    FaultPlan,
    OomKillFault,
    StragglerFault,
)
from repro.faults import resilience
from repro.faults.resilience import ResiliencePolicy
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.container import ContainerState, SimContainer
from repro.model.function import FunctionKind, FunctionSpec, Invocation
from repro.model.workprofile import cpu_profile, io_profile
from repro.obs import Observability
from repro.platformsim import run_experiment
from repro.platformsim.platform import ServerlessPlatform
from repro.workload.generator import io_function_spec, io_workload_trace
from repro.workload.trace import Trace, TraceRecord
from tests.traces import peak_memory_mb


def cpu_spec(work_ms=50.0):
    return FunctionSpec(function_id="f", kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(work_ms))


def io_spec():
    return FunctionSpec(
        function_id="f", kind=FunctionKind.IO,
        profile_factory=lambda p: io_profile(
            factory="boto3", args_hash=1, blob_wait_ms=40.0))


def burst_trace(n, gap_ms=10.0):
    return Trace([TraceRecord(i * gap_ms, "f") for i in range(n)])


def run(plan=None, policy=None, scheduler=None, spec=None, n=8,
        tracing=True):
    return run_experiment(
        scheduler if scheduler is not None else VanillaScheduler(),
        burst_trace(n), [spec if spec is not None else cpu_spec()],
        obs=Observability(tracing=tracing) if tracing else None,
        fault_plan=plan, resilience=policy)


def counter_value(result, name):
    return result.metrics_snapshot().get(name, {}).get("value", 0)


def annotation_kinds(result):
    return [a.kind for a in result.trace.annotations]


class TestContainerCrash:
    PLAN = FaultPlan(crashes=(
        ContainerCrashFault(ordinal=1, after_start_ms=5.0),))

    def test_crash_fails_inflight_without_resilience(self):
        result = run(plan=self.PLAN, spec=cpu_spec(work_ms=200.0))
        failed = result.failed_invocations()
        assert failed
        assert all(isinstance(i.error, ContainerCrashed) for i in failed)
        assert result.goodput() < 1.0
        assert counter_value(result, "faults.crashes") == 1
        assert "fault-container-crashed" in annotation_kinds(result)

    def test_crash_recovered_by_retries(self):
        result = run(plan=self.PLAN, spec=cpu_spec(work_ms=200.0),
                     policy=ResiliencePolicy(max_attempts=4))
        assert result.goodput() == 1.0
        assert result.retried_invocations()
        assert result.retry_amplification() > 1.0
        assert counter_value(result, "resilience.retries") >= 1

    def test_crash_frees_memory(self):
        # After recovery the run drains normally; nothing may leak from the
        # crashed container (its teardown frees container + client memory).
        result = run(plan=self.PLAN, spec=cpu_spec(work_ms=200.0),
                     policy=ResiliencePolicy(max_attempts=4))
        final = result.samples[-1]
        # Every provisioned container except the crashed one is still warm
        # at completion; the crashed one must hold nothing.
        expected = (result.provisioned_containers - 1) \
            * result.calibration.container_memory_mb
        assert final.memory_mb == pytest.approx(expected)

    def test_crash_under_faasbatch_batching(self):
        result = run(plan=self.PLAN, spec=io_spec(),
                     scheduler=FaaSBatchScheduler(
                         FaaSBatchConfig(window_ms=50.0)),
                     policy=ResiliencePolicy(max_attempts=4))
        assert result.goodput() == 1.0
        assert counter_value(result, "faults.crashes") == 1


class TestCrashMechanics:
    """Direct SimContainer-level checks of the crash hook."""

    def setup_container(self, env, machine, work_ms=500.0):
        spec = cpu_spec(work_ms=work_ms)
        container = SimContainer(env=env, machine=machine,
                                 container_id="c-0", function=spec,
                                 calibration=DEFAULT_CALIBRATION)
        env.run_process(env.process(container.start()))
        return spec, container

    def test_crash_aborts_all_inflight(self, env, machine):
        spec, container = self.setup_container(env, machine)
        invocations = [Invocation(invocation_id=f"i{k}", function=spec,
                                  payload=None, arrival_ms=env.now)
                       for k in range(3)]
        for inv in invocations:
            inv.mark_dispatched(env.now, 0.0)
        done = container.execute_batch(invocations)
        env.run(until=env.now + 1.0)
        error = ContainerCrashed("boom")
        assert container.crash(error) == 3
        env.run(until=env.now + 1.0)
        assert container.state is ContainerState.CRASHED
        assert all(inv.error is error for inv in invocations)
        assert done.triggered  # the batch event settles (all processes end)

    def test_crash_releases_cpu_group_and_memory(self, env, machine):
        _spec, container = self.setup_container(env, machine)
        assert machine.memory.used_mb > 0
        assert machine.cpu.has_group(container.cpu_group_name)
        container.crash(ContainerCrashed("boom"))
        env.run(until=env.now + 1.0)
        assert machine.memory.used_mb == pytest.approx(0.0)
        assert not machine.cpu.has_group(container.cpu_group_name)

    def test_crash_from_stopped_rejected(self, env, machine):
        from repro.common.errors import ContainerStateError
        _spec, container = self.setup_container(env, machine)
        container.stop()
        with pytest.raises(ContainerStateError):
            container.crash(ContainerCrashed("boom"))

    def test_injector_skips_crash_on_dead_container(self, env, machine):
        platform = ServerlessPlatform(env, machine, DEFAULT_CALIBRATION)
        injector = FaultInjector(FaultPlan(crashes=(
            ContainerCrashFault(ordinal=1, after_start_ms=50.0),)))
        injector.install(platform)
        _spec, container = self.setup_container(env, machine)
        injector.on_container_started(container)
        container.stop()  # retired before the crash delay elapses
        env.run(until=env.now + 100.0)
        assert injector.crashes_fired == 0
        assert injector.crashes_skipped == 1


class TestColdStartFailure:
    def test_failure_paid_and_recovered(self):
        plan = FaultPlan(cold_start_failures=(
            ColdStartFailureFault(ordinal=1),))
        result = run(plan=plan, policy=ResiliencePolicy(max_attempts=4))
        assert result.goodput() == 1.0
        assert counter_value(result, "faults.cold_start_failures") == 1
        assert "fault-cold-start-failed" in annotation_kinds(result)

    def test_failure_without_retries_fails_invocation(self):
        plan = FaultPlan(cold_start_failures=(
            ColdStartFailureFault(ordinal=1),))
        result = run(plan=plan, n=2)
        failed = result.failed_invocations()
        assert len(failed) == 1
        assert isinstance(failed[0].error, ColdStartFailed)

    def test_breaker_quarantines_repeated_failures(self, monkeypatch):
        plan = FaultPlan(cold_start_failures=tuple(
            ColdStartFailureFault(ordinal=k) for k in (1, 2, 3)))
        monkeypatch.setattr(resilience, "BACKOFF_CAP_MS", 1000.0)
        monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_MS", 3000.0)
        policy = ResiliencePolicy(max_attempts=10, backoff_base_ms=300.0)
        result = run(plan=plan, policy=policy, n=1)
        assert result.goodput() == 1.0
        # closed -> open, open -> half-open, half-open -> closed.
        assert counter_value(result,
                             "resilience.breaker_transitions") >= 2
        assert counter_value(result, "resilience.breaker_refusals") >= 1
        assert "breaker-transition" in annotation_kinds(result)


class TestStraggler:
    def test_straggler_slows_then_restores(self):
        plan = FaultPlan(stragglers=(
            StragglerFault(ordinal=1, after_start_ms=1.0,
                           duration_ms=4000.0, cpu_scale=0.05),))
        spec = cpu_spec(work_ms=100.0)
        baseline = run(n=4)
        slowed = run(plan=plan, spec=spec, n=4)
        assert slowed.completion_ms > baseline.completion_ms
        assert counter_value(slowed, "faults.stragglers") == 1
        kinds = annotation_kinds(slowed)
        assert "fault-straggler-began" in kinds

    def test_straggler_cap_restored_after_window(self, env, machine):
        platform = ServerlessPlatform(env, machine, DEFAULT_CALIBRATION)
        injector = FaultInjector(FaultPlan(stragglers=(
            StragglerFault(ordinal=1, after_start_ms=1.0,
                           duration_ms=10.0, cpu_scale=0.5),)))
        injector.install(platform)
        spec = cpu_spec()
        container = SimContainer(env=env, machine=machine,
                                 container_id="c-0", function=spec,
                                 calibration=DEFAULT_CALIBRATION)
        env.run_process(env.process(container.start()))
        injector.on_container_started(container)
        env.run(until=env.now + 5.0)  # inside the straggle window
        group = machine.cpu.group(container.cpu_group_name)
        assert group.cap == pytest.approx(machine.cores * 0.5)
        env.run(until=env.now + 20.0)  # past the window
        assert group.cap is None  # original (uncapped) restored
        assert injector.stragglers_fired == 1


class TestDispatchError:
    PLAN = FaultPlan(dispatch_errors=(DispatchErrorFault(ordinal=2),))

    def test_dispatch_error_fails_without_retry(self):
        result = run(plan=self.PLAN)
        assert len(result.failed_invocations()) == 1
        assert result.goodput() < 1.0

    def test_dispatch_error_retried(self):
        result = run(plan=self.PLAN, policy=ResiliencePolicy(max_attempts=3))
        assert result.goodput() == 1.0
        assert len(result.retried_invocations()) == 1
        retried = result.retried_invocations()[0]
        assert retried.attempts == 2
        first = retried.attempt_history[0]
        assert first.error == "TransientDispatchError"
        assert first.dispatched_ms is None  # failed before reaching a container
        assert counter_value(result, "faults.dispatch_errors") == 1
        assert "fault-dispatch-error" in annotation_kinds(result)


class TestOomKill:
    def test_oom_kills_fattest_container_and_recovers(self):
        baseline = run(spec=io_spec(), n=6)
        peak = peak_memory_mb(baseline)
        plan = FaultPlan(oom_kills=(
            OomKillFault(threshold_mb=peak * 0.7, max_kills=1),))
        result = run(plan=plan, spec=io_spec(), n=6,
                     policy=ResiliencePolicy(max_attempts=4))
        assert counter_value(result, "faults.oom_kills") == 1
        assert result.goodput() == 1.0
        oom_failures = [i for i in result.invocations
                        for a in i.attempt_history
                        if a.error == OomKilled.__name__]
        assert oom_failures
        assert "fault-oom-kill" in annotation_kinds(result)

    @pytest.mark.parametrize("policy",
                             ["Vanilla", "SFS", "Hiku", "DataDriven"])
    def test_kill_between_warm_take_and_dispatch_takes_the_miss_path(
            self, policy):
        """Regression: a warm container taken from the pool can be killed
        while its batch pays the dispatch work; executing on it raised
        ``ContainerStateError`` out of the run."""
        plan = FaultPlan(oom_kills=(
            OomKillFault(threshold_mb=2500.0, max_kills=3),))
        result = run_experiment(
            build_scheduler(policy, SchedulerBuild()),
            io_workload_trace(seed=13, total=200), [io_function_spec()],
            fault_plan=plan)
        assert counter_value(result, "faults.oom_kills") == 3
        assert counter_value(result, "pool.rejected_releases") == 3
        assert sorted(i.invocation_id for i in result.invocations) \
            == sorted(f"inv-{n}" for n in range(200))
        assert all(i.completed_ms is not None for i in result.invocations)

    def test_max_kills_bounds_the_damage(self):
        baseline = run(spec=io_spec(), n=6)
        plan = FaultPlan(oom_kills=(
            OomKillFault(threshold_mb=peak_memory_mb(baseline) * 0.5,
                         max_kills=1),))
        result = run(plan=plan, spec=io_spec(), n=6,
                     policy=ResiliencePolicy(max_attempts=5))
        assert counter_value(result, "faults.oom_kills") == 1
