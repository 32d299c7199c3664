"""Negative-space tests: where FaaSBatch should NOT win.

§II-A is explicit: "For some rarely invoked functions (e.g., 1 request per
hour), our proposed strategy may fall short of demonstrating the required
resource reduction."  A faithful reproduction must show the neutral cases
too: with sparse, non-overlapping arrivals every group has size one and
FaaSBatch degenerates to Vanilla-plus-a-window.
"""

from __future__ import annotations

import pytest

from repro.baselines import VanillaScheduler
from repro.core import FaaSBatchConfig, FaaSBatchScheduler
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile
from repro.platformsim import run_experiment
from repro.workload.trace import Trace, TraceRecord


def sparse_trace(count: int = 20, gap_ms: float = 10_000.0) -> Trace:
    """Arrivals far apart: no two invocations ever share a window."""
    return Trace([TraceRecord(arrival_ms=i * gap_ms, function_id="rare")
                  for i in range(count)])


def rare_spec() -> FunctionSpec:
    return FunctionSpec(function_id="rare", kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(100.0))


class TestSparseNeutrality:
    def test_groups_degenerate_to_singletons(self):
        scheduler = FaaSBatchScheduler()
        result = run_experiment(scheduler, sparse_trace(), [rare_spec()])
        assert result.metrics_snapshot()["faasbatch.groups"]["value"] == 20
        assert scheduler.producer.invocations_executed == 20
        # Every group carried exactly one invocation.
        assert scheduler.producer.groups_executed == 20

    def test_no_container_savings_for_rare_functions(self):
        trace = sparse_trace(count=15, gap_ms=120_000.0)  # > keep-alive
        spec = rare_spec()
        ours = run_experiment(FaaSBatchScheduler(), trace, [spec])
        vanilla = run_experiment(VanillaScheduler(), trace, [spec])
        # Keep-alive (60 s) expires between arrivals: both policies pay one
        # cold start per invocation.  No savings, exactly as §II-A warns.
        assert ours.provisioned_containers == \
            vanilla.provisioned_containers == 15

    def test_window_only_adds_bounded_latency(self):
        trace = sparse_trace()
        spec = rare_spec()
        ours = run_experiment(
            FaaSBatchScheduler(FaaSBatchConfig(window_ms=200.0)),
            trace, [spec])
        vanilla = run_experiment(VanillaScheduler(), trace, [spec])
        # FaaSBatch pays its dispatch window on top of Vanilla's path, and
        # nothing else: the median gap is about the window size.
        gap = ours.latency_stats().median - vanilla.latency_stats().median
        assert 0.0 <= gap <= 250.0

    def test_zero_window_closes_the_gap(self):
        trace = sparse_trace()
        spec = rare_spec()
        ours = run_experiment(
            FaaSBatchScheduler(FaaSBatchConfig(window_ms=0.0)),
            trace, [spec])
        vanilla = run_experiment(VanillaScheduler(), trace, [spec])
        assert ours.latency_stats().median == pytest.approx(
            vanilla.latency_stats().median, rel=0.1)
