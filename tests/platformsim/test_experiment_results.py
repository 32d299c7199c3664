"""Tests for the experiment runner and result aggregation."""

from __future__ import annotations

import pytest

from repro.baselines.vanilla import VanillaScheduler
from repro.common.errors import SimulationError
from repro.core.scheduler import FaaSBatchScheduler
from repro.platformsim.experiment import run_experiment
from repro.workload.generator import (
    cpu_workload_trace,
    fib_function_spec,
    io_function_spec,
    io_workload_trace,
)


@pytest.fixture(scope="module")
def small_result():
    trace = cpu_workload_trace(total=60)
    return run_experiment(VanillaScheduler(), trace, [fib_function_spec()],
                          workload_label="cpu-small")


class TestRunner:
    def test_labels_propagate(self, small_result):
        assert small_result.scheduler_name == "Vanilla"
        assert small_result.workload_label == "cpu-small"

    def test_all_invocations_completed(self, small_result):
        assert len(small_result.invocations) == 60
        for invocation in small_result.invocations:
            assert invocation.completed_ms is not None
            assert invocation.end_to_end_ms >= 0.0

    def test_breakdown_sums_to_end_to_end(self, small_result):
        for invocation in small_result.invocations:
            assert invocation.end_to_end_ms == pytest.approx(
                invocation.latency.total_ms, abs=1e-6)

    def test_samples_collected_at_one_hertz(self, small_result):
        times = [s.time_ms for s in small_result.samples]
        assert times[0] == 0.0
        deltas = {round(b - a) for a, b in zip(times, times[1:])}
        assert deltas == {1000}

    def test_timeout_raises(self):
        trace = cpu_workload_trace(total=30)
        with pytest.raises(SimulationError):
            run_experiment(VanillaScheduler(), trace, [fib_function_spec()],
                           timeout_ms=10.0)



class TestResultMetrics:
    def test_cdfs_have_one_point_per_invocation(self, small_result):
        assert len(small_result.scheduling_cdf()) == 60
        assert len(small_result.cold_start_cdf()) == 60
        assert len(small_result.execution_cdf()) == 60
        assert len(small_result.end_to_end_cdf()) == 60

    def test_average_memory_positive(self, small_result):
        assert small_result.average_memory_mb() > 0.0
        assert small_result.peak_memory_mb() >= \
            small_result.average_memory_mb()

    def test_cpu_utilization_in_unit_interval(self, small_result):
        assert 0.0 <= small_result.average_cpu_utilization() <= 1.0
        assert small_result.total_cpu_core_seconds() > 0.0

    def test_invocations_per_container(self, small_result):
        ratio = small_result.invocations_per_container()
        assert ratio == pytest.approx(
            60 / small_result.provisioned_containers)

    def test_summary_row_matches_headers(self, small_result):
        row = small_result.summary_row()
        assert len(row) == len(small_result.SUMMARY_HEADERS)
        assert row[0] == "Vanilla"
        assert row[1] == 60

    def test_client_footprint_zero_for_cpu_workload(self, small_result):
        assert small_result.clients_created == 0
        assert small_result.client_memory_footprint_mb() == 0.0

    def test_client_footprint_for_io(self):
        trace = io_workload_trace(total=40)
        result = run_experiment(FaaSBatchScheduler(), trace,
                                [io_function_spec()])
        assert result.clients_created >= 1
        assert 0.0 < result.client_memory_footprint_mb() < 5.0


class TestExport:
    def test_to_dict_round_trips_counts(self, small_result):
        data = small_result.to_dict()
        assert data["scheduler"] == "Vanilla"
        assert len(data["invocations"]) == 60
        assert data["failures"] == 0
        assert all(row["execution_ms"] > 0 for row in data["invocations"])
        assert data["samples"][0]["time_ms"] == 0.0

    def test_to_json_writes_file(self, small_result, tmp_path):
        import json
        path = tmp_path / "result.json"
        small_result.to_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["provisioned_containers"] == \
            small_result.provisioned_containers
        assert len(loaded["invocations"]) == 60
