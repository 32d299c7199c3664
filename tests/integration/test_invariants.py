"""Property-based invariants that must hold for EVERY scheduler and workload.

These use hypothesis to generate random small workloads (arrival patterns,
duration mixes, function counts) and assert structural invariants of the
platform: exactly-once completion, non-negative monotone latency stamps,
conservation of containers and clients, and sane resource accounting.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    KrakenConfig,
    KrakenParameters,
    KrakenScheduler,
    SfsScheduler,
    VanillaScheduler,
)
from repro.core import FaaSBatchConfig, FaaSBatchScheduler
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile
from repro.platformsim import run_experiment
from repro.workload.trace import Trace, TraceRecord
from tests.traces import cpu_work_ms

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def workloads(draw):
    """A small random workload: trace + matching function specs."""
    function_count = draw(st.integers(1, 3))
    invocations = draw(st.integers(1, 25))
    specs = []
    for index in range(function_count):
        duration = draw(st.floats(1.0, 400.0))
        specs.append(FunctionSpec(
            function_id=f"fn-{index}", kind=FunctionKind.CPU,
            profile_factory=(
                lambda payload, d=duration: cpu_profile(d))))
    records = []
    for _ in range(invocations):
        arrival = draw(st.floats(0.0, 3_000.0))
        function = draw(st.integers(0, function_count - 1))
        records.append(TraceRecord(arrival_ms=arrival,
                                   function_id=f"fn-{function}"))
    return Trace(records), specs


def make_schedulers():
    params = KrakenParameters(
        slo_ms={f"fn-{i}": 2_000.0 for i in range(3)},
        mean_execution_ms={f"fn-{i}": 200.0 for i in range(3)})
    return [
        VanillaScheduler(),
        SfsScheduler(),
        KrakenScheduler(KrakenConfig(parameters=params)),
        FaaSBatchScheduler(),
        FaaSBatchScheduler(FaaSBatchConfig(early_return=True)),
        FaaSBatchScheduler(FaaSBatchConfig(inline_parallel=False)),
    ]


def check_invariants(result, trace):
    # Exactly-once completion, no losses, no duplicates.
    assert len(result.invocations) == len(trace)
    ids = [inv.invocation_id for inv in result.invocations]
    assert len(set(ids)) == len(ids)
    assert result.failure_count == 0

    for invocation in result.invocations:
        latency = invocation.latency
        # All components non-negative.
        assert latency.scheduling_ms >= -1e-9
        assert latency.cold_start_ms >= -1e-9
        assert latency.queuing_ms >= -1e-9
        assert latency.execution_ms > 0.0
        # Stamps are monotone.
        assert invocation.arrival_ms <= invocation.dispatched_ms
        assert invocation.dispatched_ms <= invocation.execution_start_ms
        assert invocation.execution_start_ms < invocation.completed_ms
        assert invocation.completed_ms <= invocation.responded_ms
        # Breakdown sums to the end-to-end latency.
        assert invocation.end_to_end_ms == pytest.approx(
            latency.scheduling_ms + latency.cold_start_ms
            + latency.queuing_ms + latency.execution_ms, abs=1e-6)

    # Containers: at least one, at most one per invocation.
    assert 1 <= result.provisioned_containers <= len(trace)
    # CPU-only workload creates no storage clients.
    assert result.clients_created == 0
    # Utilisation is a fraction; busy work is positive.
    assert 0.0 <= result.average_cpu_utilization() <= 1.0
    assert result.total_cpu_core_seconds() > 0.0


class TestSchedulerInvariants:
    @SETTINGS
    @given(workload=workloads())
    def test_vanilla(self, workload):
        trace, specs = workload
        check_invariants(
            run_experiment(VanillaScheduler(), trace, specs), trace)

    @SETTINGS
    @given(workload=workloads())
    def test_sfs(self, workload):
        trace, specs = workload
        check_invariants(
            run_experiment(SfsScheduler(), trace, specs), trace)

    @SETTINGS
    @given(workload=workloads())
    def test_kraken(self, workload):
        trace, specs = workload
        params = KrakenParameters(
            slo_ms={s.function_id: 2_000.0 for s in specs},
            mean_execution_ms={s.function_id: 200.0 for s in specs})
        check_invariants(
            run_experiment(KrakenScheduler(KrakenConfig(parameters=params)),
                           trace, specs), trace)

    @SETTINGS
    @given(workload=workloads())
    def test_faasbatch(self, workload):
        trace, specs = workload
        check_invariants(
            run_experiment(FaaSBatchScheduler(), trace, specs), trace)

    @SETTINGS
    @given(workload=workloads(),
           window_ms=st.sampled_from([0.0, 10.0, 200.0, 500.0]),
           early=st.booleans(), inline=st.booleans(), mux=st.booleans())
    def test_faasbatch_config_space(self, workload, window_ms, early,
                                    inline, mux):
        """Every corner of FaaSBatch's configuration space preserves the
        platform invariants."""
        trace, specs = workload
        scheduler = FaaSBatchScheduler(FaaSBatchConfig(
            window_ms=window_ms, inline_parallel=inline,
            multiplex_resources=mux, early_return=early))
        check_invariants(run_experiment(scheduler, trace, specs), trace)


class TestCrossSchedulerConservation:
    @SETTINGS
    @given(workload=workloads())
    def test_total_execution_work_identical(self, workload):
        """Schedulers cannot change how much work a workload IS — only when
        it runs.  Total busy core-seconds of pure function work must not
        depend on the policy (modulo each policy's own overheads, so we
        compare a lower bound)."""
        trace, specs = workload
        results = [run_experiment(VanillaScheduler(), trace, specs),
                   run_experiment(FaaSBatchScheduler(), trace, specs)]
        # Sum of declared profile work is a floor for measured busy time.
        floor_core_ms = sum(
            cpu_work_ms(spec.build_profile(None))
            * sum(1 for r in trace if r.function_id == spec.function_id)
            for spec in specs)
        for result in results:
            assert result.total_cpu_core_seconds() * 1000.0 >= \
                floor_core_ms - 1e-3
