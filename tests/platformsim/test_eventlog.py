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
from repro.obs import Observability
from repro.platformsim.experiment import run_experiment
from repro.workload.generator import cpu_workload_trace, fib_function_spec


class TestPlatformIntegration:
    def run_traced(self, scheduler, total=40):
        """Run a small experiment with tracing on."""
        return run_experiment(scheduler, cpu_workload_trace(total=total),
                              [fib_function_spec()],
                              obs=Observability(tracing=True))

    @staticmethod
    def counter(result, name):
        # Metric handles are created on first use: an absent counter is 0.
        return result.metrics_snapshot().get(name, {}).get("value", 0)

    @staticmethod
    def container_events(result, kind):
        return [event for event in result.trace.container_events
                if event.kind == kind]

    def test_every_request_logged(self):
        # Every request has a timeline and a completion.
        result = self.run_traced(VanillaScheduler())
        tracer = result.trace
        assert self.counter(result, "platform.requests") == 40
        assert self.counter(result, "platform.completed") == 40
        assert self.counter(result, "platform.failed") == 0
        assert len(result.invocations) == 40
        for invocation in result.invocations:
            timeline = tracer.timeline(invocation.invocation_id)
            assert not timeline.failed
        assert len(tracer.timelines()) == 40

    def test_cold_starts_bracketed(self):
        result = self.run_traced(VanillaScheduler())
        began = len(self.container_events(result, "cold-start-began"))
        ended = len(self.container_events(result, "cold-start-ended"))
        assert began == ended == result.provisioned_containers
        # Warm hits + cold starts cover every container acquisition.
        assert self.counter(result, "pool.warm_hits") + began >= 40

    def test_faasbatch_fewer_decisions_than_requests(self):
        result = self.run_traced(FaaSBatchScheduler())
        decisions = self.counter(result, "platform.dispatch_decisions")
        assert 0 < decisions < self.counter(result, "platform.requests")
        batches = self.container_events(result, "batch-started")
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
