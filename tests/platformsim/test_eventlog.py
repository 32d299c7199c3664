"""The platform's lifecycle record: the span tracer plus the metrics.

Every lifecycle step a run takes is held by the tracer (an invocation
timeline, a container event or an annotation) or by a metric;
``docs/observability.md`` lists which holds what.  These checks read both
recorders on small runs and assert that they agree with the platform's
own accounting.
"""

from __future__ import annotations

from repro.baselines import VanillaScheduler
from repro.core import FaaSBatchScheduler
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.obs import Observability
from repro.platformsim.experiment import run_experiment
from repro.platformsim.gateway import start_replay
from repro.platformsim.platform import ServerlessPlatform
from repro.sim.kernel import Environment
from repro.sim.machine import Machine
from repro.workload.generator import cpu_workload_trace, fib_function_spec


class TestPlatformIntegration:
    def run_traced(self, scheduler, total=40):
        """Run a small experiment on a platform with tracing on."""
        trace = cpu_workload_trace(total=total)
        spec = fib_function_spec()
        env = Environment()
        machine = Machine(env)
        platform = ServerlessPlatform(env, machine, DEFAULT_CALIBRATION,
                                      obs=Observability(tracing=True))
        platform.register_function(spec)
        done = platform.expect_invocations(len(trace))
        scheduler.start(platform)
        start_replay(platform, trace)

        def waiter():
            yield done

        env.run_process(env.process(waiter()))
        return platform

    @staticmethod
    def counter(platform, name):
        # Metric handles are created on first use: an absent counter is 0.
        return platform.obs.metrics.snapshot().get(name, {}).get("value", 0)

    @staticmethod
    def container_events(platform, kind):
        return [event for event in platform.obs.tracer.container_events
                if event.kind == kind]

    def test_every_request_logged(self):
        # Every request has a timeline and a completion.
        platform = self.run_traced(VanillaScheduler())
        tracer = platform.obs.tracer
        assert self.counter(platform, "platform.requests") == 40
        assert self.counter(platform, "platform.completed") == 40
        assert self.counter(platform, "platform.failed") == 0
        assert len(platform.completed) == 40
        for invocation in platform.completed:
            timeline = tracer.timeline(invocation.invocation_id)
            assert not timeline.failed
        assert len(tracer.timelines()) == 40

    def test_cold_starts_bracketed(self):
        platform = self.run_traced(VanillaScheduler())
        began = len(self.container_events(platform, "cold-start-began"))
        ended = len(self.container_events(platform, "cold-start-ended"))
        assert began == ended == platform.provisioned_containers()
        # Warm hits + cold starts cover every container acquisition.
        assert self.counter(platform, "pool.warm_hits") + began >= 40

    def test_faasbatch_fewer_decisions_than_requests(self):
        platform = self.run_traced(FaaSBatchScheduler())
        decisions = self.counter(platform, "platform.dispatch_decisions")
        assert 0 < decisions < self.counter(platform, "platform.requests")
        batches = self.container_events(platform, "batch-started")
        assert sum(int(event.attrs["batch_size"]) for event in batches) == 40

    def test_experiment_runner_leaves_log_off_by_default(self):
        trace = cpu_workload_trace(total=20)
        result = run_experiment(VanillaScheduler(), trace,
                                [fib_function_spec()])
        assert len(result.invocations) == 20
        assert not result.trace.enabled
        assert len(result.trace) == 0
        assert not result.trace.container_events
        assert not result.trace.annotations
