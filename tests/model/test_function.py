"""Tests for FunctionSpec / Invocation latency stamping."""

from __future__ import annotations

import pytest

from repro.common.errors import SchedulingError
from repro.model.function import (
    FunctionKind,
    FunctionSpec,
    Invocation,
    InvocationState,
    LatencyBreakdown,
)
from repro.model.workprofile import CpuWork, cpu_profile


@pytest.fixture
def spec():
    return FunctionSpec(function_id="f", kind=FunctionKind.CPU,
                        profile_factory=lambda payload: cpu_profile(10.0))


@pytest.fixture
def invocation(spec):
    return Invocation(invocation_id="inv-0", function=spec, payload=None,
                      arrival_ms=100.0)


class TestLatencyBreakdown:
    def test_total_is_sum_of_components(self):
        latency = LatencyBreakdown(scheduling_ms=1.0, cold_start_ms=2.0,
                                   queuing_ms=3.0, execution_ms=4.0)
        assert latency.total_ms == 10.0


class TestStamping:
    def test_full_lifecycle(self, invocation):
        invocation.mark_dispatched(now_ms=150.0, cold_start_ms=30.0)
        assert invocation.state is InvocationState.DISPATCHED
        # scheduling excludes the cold start, per the paper's metric.
        assert invocation.latency.scheduling_ms == pytest.approx(20.0)
        assert invocation.latency.cold_start_ms == 30.0

        invocation.mark_execution_start(now_ms=170.0)
        assert invocation.latency.queuing_ms == pytest.approx(20.0)
        assert invocation.state is InvocationState.RUNNING

        invocation.mark_completed(now_ms=250.0)
        assert invocation.latency.execution_ms == pytest.approx(80.0)
        assert invocation.end_to_end_ms == pytest.approx(150.0)
        assert invocation.state is InvocationState.COMPLETED
        # Consistency: end-to-end equals the component sum.
        assert invocation.end_to_end_ms == pytest.approx(
            invocation.latency.total_ms)

    def test_double_dispatch_rejected(self, invocation):
        invocation.mark_dispatched(150.0, 0.0)
        with pytest.raises(SchedulingError):
            invocation.mark_dispatched(160.0, 0.0)

    def test_cold_start_cannot_exceed_elapsed(self, invocation):
        with pytest.raises(SchedulingError):
            invocation.mark_dispatched(now_ms=110.0, cold_start_ms=50.0)

    def test_start_before_dispatch_rejected(self, invocation):
        with pytest.raises(SchedulingError):
            invocation.mark_execution_start(200.0)

    def test_complete_before_start_rejected(self, invocation):
        invocation.mark_dispatched(150.0, 0.0)
        with pytest.raises(SchedulingError):
            invocation.mark_completed(300.0)

    def test_end_to_end_requires_completion(self, invocation):
        with pytest.raises(SchedulingError):
            _ = invocation.end_to_end_ms

    def test_failure_marks_state_and_error(self, invocation):
        error = RuntimeError("handler blew up")
        invocation.mark_failed(200.0, error)
        assert invocation.state is InvocationState.FAILED
        assert invocation.error is error


class TestFunctionSpec:
    def test_build_profile_delegates_to_factory(self, spec):
        profile = spec.build_profile(payload=None)
        assert list(profile) == [CpuWork(10.0)]

    def test_payload_reaches_factory(self):
        received = []

        def factory(payload):
            received.append(payload)
            return cpu_profile(1.0)

        spec = FunctionSpec(function_id="g", kind=FunctionKind.CPU,
                            profile_factory=factory)
        spec.build_profile({"n": 30})
        assert received == [{"n": 30}]
