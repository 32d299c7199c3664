"""Acceptance tests for the observability layer (ISSUE: tracing + metrics).

Three properties are pinned here:

1. a traced end-to-end FaaSBatch run yields a complete, gap-free span
   timeline per invocation whose stage durations sum to the end-to-end
   latency within 1e-6 ms;
2. enabling tracing does not change any simulated result (pure observer);
3. the span-derived latency breakdown matches the stamp-derived one.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.breakdown import (
    check_trace_invariants,
    summarize_components,
)
from repro.baselines import VanillaScheduler
from repro.core import FaaSBatchConfig, FaaSBatchScheduler
from repro.obs import Observability
from repro.obs.trace import STAGE_ORDER, Stage
from repro.platformsim import run_experiment
from repro.workload.generator import (
    cpu_workload_trace,
    fib_function_spec,
    io_function_spec,
    io_workload_trace,
)

TOTAL = 80


def traced_run(scheduler=None, trace=None, specs=None):
    scheduler = scheduler or FaaSBatchScheduler()
    trace = trace if trace is not None else cpu_workload_trace(total=TOTAL)
    specs = specs or [fib_function_spec()]
    return run_experiment(scheduler, trace, specs,
                          obs=Observability(tracing=True))


class TestTimelineCompleteness:
    def test_every_invocation_has_a_complete_valid_timeline(self):
        result = traced_run()
        tracer = result.trace
        assert len(tracer) == TOTAL
        assert tracer.validate_all() == []
        for timeline in tracer.timelines():
            assert [s.stage for s in timeline.spans] == list(STAGE_ORDER)

    def test_stage_durations_sum_to_end_to_end_latency(self):
        result = traced_run()
        by_id = {inv.invocation_id: inv for inv in result.invocations}
        for timeline in result.trace.timelines():
            invocation = by_id[timeline.invocation_id]
            component_sum = sum(timeline.duration_of(stage)
                                for stage in STAGE_ORDER[:-1])
            assert component_sum == pytest.approx(
                invocation.end_to_end_ms, abs=1e-6)
            full_sum = component_sum + timeline.duration_of(Stage.RESPONDING)
            assert full_sum == pytest.approx(
                invocation.response_latency_ms, abs=1e-6)

    def test_timelines_match_invocation_stamps(self):
        result = traced_run()
        by_id = {inv.invocation_id: inv for inv in result.invocations}
        for timeline in result.trace.timelines():
            invocation = by_id[timeline.invocation_id]
            assert timeline.arrival_ms == pytest.approx(
                invocation.arrival_ms)
            assert timeline.completed_ms == pytest.approx(
                invocation.completed_ms)
            assert timeline.responded_ms == pytest.approx(
                invocation.responded_ms)
            assert timeline.container_id == invocation.container_id

    def test_vanilla_and_io_runs_also_validate(self):
        check_trace_invariants(traced_run(VanillaScheduler()).trace)
        check_trace_invariants(traced_run(
            trace=io_workload_trace(total=60),
            specs=[io_function_spec()]).trace)

    def test_container_timelines_bracket_executions(self):
        result = traced_run()
        tracer = result.trace
        container_ids = {t.container_id for t in tracer.timelines()}
        assert container_ids
        for container_id in container_ids:
            events = [event for event in tracer.container_events
                      if event.container_id == container_id]
            assert events[0].kind == "cold-start-began"
            starts = [span.start_ms for span in tracer.spans()
                      if span.container_id == container_id
                      and span.stage is Stage.EXECUTING]
            assert starts and min(starts) >= events[0].time_ms


def fingerprint(result):
    """Every simulated quantity that could reveal an observer effect."""
    return json.dumps({
        "invocations": [
            (inv.invocation_id, inv.arrival_ms, inv.latency.scheduling_ms,
             inv.latency.cold_start_ms, inv.latency.queuing_ms,
             inv.latency.execution_ms, inv.responded_ms, inv.container_id)
            for inv in result.invocations],
        "containers": result.provisioned_containers,
        "clients": result.clients_created,
        "completion_ms": result.completion_ms,
    }, sort_keys=True)


class TestTracingIsPureObservation:
    def test_results_identical_with_tracing_on_and_off(self):
        trace = cpu_workload_trace(total=TOTAL)
        spec = fib_function_spec()
        plain = run_experiment(FaaSBatchScheduler(), trace, [spec])
        traced = run_experiment(FaaSBatchScheduler(), trace, [spec],
                                obs=Observability(tracing=True))
        assert fingerprint(plain) == fingerprint(traced)
        assert len(plain.trace) == 0  # off by default
        assert len(traced.trace) == TOTAL

    def test_early_return_run_identical_too(self):
        trace = cpu_workload_trace(total=60)
        spec = fib_function_spec()
        config = FaaSBatchConfig(early_return=True)
        plain = run_experiment(FaaSBatchScheduler(config), trace, [spec])
        traced = run_experiment(FaaSBatchScheduler(config), trace, [spec],
                                obs=Observability(tracing=True))
        assert fingerprint(plain) == fingerprint(traced)


class TestSamplingIsPureObservation:
    def test_results_identical_with_sampling_on_and_off(self):
        trace = cpu_workload_trace(total=TOTAL)
        spec = fib_function_spec()
        plain = run_experiment(FaaSBatchScheduler(), trace, [spec])
        sampled = run_experiment(
            FaaSBatchScheduler(), trace, [spec],
            obs=Observability(tracing=True, sampling=True))
        assert fingerprint(plain) == fingerprint(sampled)
        # The sampler rides the kernel's time hook, never the event queue:
        # the simulation processes the exact same number of events.
        assert plain.kernel_events == sampled.kernel_events
        assert json.dumps(plain.to_dict(), sort_keys=True) == \
            json.dumps(sampled.to_dict(), sort_keys=True)

    def test_series_snapshots_byte_identical_across_runs(self):
        def run() -> str:
            result = run_experiment(
                FaaSBatchScheduler(), cpu_workload_trace(total=TOTAL),
                [fib_function_spec()],
                obs=Observability(tracing=True, sampling=True))
            return json.dumps(result.sampler.snapshot(), sort_keys=True)
        assert run() == run()

    def test_platform_instruments_are_sampled(self):
        result = run_experiment(
            FaaSBatchScheduler(), cpu_workload_trace(total=TOTAL),
            [fib_function_spec()],
            obs=Observability(tracing=True, sampling=True))
        names = set(result.sampler.names())
        assert names >= {"platform.pending_requests",
                         "scheduler.open_windows", "pool.idle_containers",
                         "containers.live", "containers.busy",
                         "cpu.utilization", "cpu.runnable_groups",
                         "memory.used_mb"}
        # Something actually got recorded, at sim-time boundaries.
        live = result.sampler.series("containers.live").points()
        assert live
        assert max(v for _t, v in live) >= 1.0

    def test_sampler_absent_when_sampling_off(self):
        result = run_experiment(FaaSBatchScheduler(),
                                cpu_workload_trace(total=40),
                                [fib_function_spec()])
        sampler = result.sampler
        assert sampler is None or not sampler.enabled


class TestSpanDerivedBreakdown:
    def test_span_breakdown_equals_stamp_breakdown(self):
        result = traced_run()
        from_spans = summarize_components(result)
        from_stamps = summarize_components(
            dataclasses.replace(result, trace=None))
        assert len(from_spans) == len(from_stamps) == 4
        for span_summary, stamp_summary in zip(from_spans, from_stamps):
            assert span_summary.component == stamp_summary.component
            assert span_summary.mean_ms == pytest.approx(
                stamp_summary.mean_ms, abs=1e-6)
            assert span_summary.p98_ms == pytest.approx(
                stamp_summary.p98_ms, abs=1e-6)


class TestMetricsPublished:
    def test_platform_and_scheduler_metrics_recorded(self):
        result = traced_run()
        snapshot = result.metrics_snapshot()
        assert snapshot["platform.requests"]["value"] == TOTAL
        assert snapshot["platform.completed"]["value"] == TOTAL
        assert snapshot["platform.e2e_latency_ms"]["count"] == TOTAL
        assert snapshot["pool.provisioned"]["value"] == \
            result.provisioned_containers
        assert snapshot["docker.containers_created"]["value"] == \
            result.provisioned_containers
        assert snapshot["faasbatch.windows"]["value"] >= 1
        assert snapshot["faasbatch.group_size"]["count"] >= 1

    def test_metrics_present_even_without_tracing(self):
        result = run_experiment(FaaSBatchScheduler(),
                                cpu_workload_trace(total=40),
                                [fib_function_spec()])
        snapshot = result.metrics_snapshot()
        assert snapshot["platform.requests"]["value"] == 40
