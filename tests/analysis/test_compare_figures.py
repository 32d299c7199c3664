"""Tests for the analysis helpers: comparisons and figure renderers."""

from __future__ import annotations

import pytest

from repro.analysis.compare import (
    STANDARD_METRICS,
    SchedulerComparison,
    reduction_percent,
)
from repro.analysis.figures import (
    cdf_comparison_table,
    client_footprint_table,
    creation_cost_table,
    duration_distribution_table,
    invocation_pattern_table,
    latency_cdf_tables,
    resource_cost_table,
    sharing_vs_monopoly_table,
)
from repro.analysis.report import emit, emit_lines
from repro.baselines.vanilla import VanillaScheduler
from repro.common.cdf import EmpiricalCdf
from repro.common.errors import ReproError
from repro.core.scheduler import FaaSBatchScheduler
from repro.platformsim.experiment import run_experiment
from repro.workload.generator import cpu_workload_trace, fib_function_spec


@pytest.fixture(scope="module")
def results():
    trace = cpu_workload_trace(total=60)
    return [run_experiment(scheduler, trace, [fib_function_spec()])
            for scheduler in (VanillaScheduler(), FaaSBatchScheduler())]


class TestReduction:
    def test_reduction_percent(self):
        assert reduction_percent(100.0, 8.0) == pytest.approx(92.0)
        assert reduction_percent(10.0, 10.0) == 0.0
        assert reduction_percent(10.0, 20.0) == -100.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ReproError):
            reduction_percent(0.0, 1.0)


class TestSchedulerComparison:
    def test_requires_reference(self, results):
        with pytest.raises(ReproError):
            SchedulerComparison([result for result in results
                                 if result.scheduler_name != "FaaSBatch"])

    def test_duplicate_results_rejected(self, results):
        with pytest.raises(ReproError):
            SchedulerComparison(list(results) + [results[0]])

    def test_reduction_table_shape(self, results):
        comparison = SchedulerComparison(results)
        rows = comparison.reduction_table()
        # One row per (metric, non-reference scheduler).
        assert len(rows) == len(STANDARD_METRICS) * 1
        for row in rows:
            assert len(row) == len(comparison.REDUCTION_HEADERS)

    def test_container_reduction_positive(self, results):
        comparison = SchedulerComparison(results)
        containers = next(m for m in STANDARD_METRICS
                          if m.key == "containers")
        assert comparison.reduction("Vanilla", containers) > 0.0

    def test_unknown_scheduler_rejected(self, results):
        comparison = SchedulerComparison(results)
        with pytest.raises(ReproError):
            comparison.result("SFS")


class TestFigureTables:
    def test_cdf_comparison_table(self):
        cdfs = {"A": EmpiricalCdf([1.0, 2.0, 3.0]),
                "B": EmpiricalCdf([10.0, 20.0, 30.0])}
        headers, rows = cdf_comparison_table(cdfs)
        assert headers == ["P", "A (ms)", "B (ms)"]
        assert rows[-1][0] == "1.00"
        assert rows[-1][1] == 3.0
        assert rows[-1][2] == 30.0

    def test_latency_cdf_tables_panels(self, results):
        tables = latency_cdf_tables(results)
        assert set(tables) == {"scheduling", "cold_start", "exec_queue"}
        headers, rows = tables["scheduling"]
        assert "Vanilla (ms)" in headers
        assert "FaaSBatch (ms)" in headers

    def test_resource_cost_table(self, results):
        headers, rows = resource_cost_table({200.0: results})
        assert len(rows) == 2
        assert rows[0][0] == 0.2  # window in seconds

    def test_client_footprint_table(self, results):
        headers, rows = client_footprint_table(results)
        assert len(rows) == 2
        assert headers[-1] == "client_MB_per_invocation"

    def test_duration_distribution_table(self):
        headers, rows = duration_distribution_table(
            fractions=[0.5, 0.5], expected=[0.55, 0.45],
            labels=["[0,50)", "[50,inf)"])
        assert rows[0] == ["[0,50)", 0.55, 0.5]

    def test_invocation_pattern_table(self):
        headers, rows = invocation_pattern_table([3, 0, 7])
        assert rows == [[0, 3], [1, 0], [2, 7]]

    def test_sharing_vs_monopoly_table(self):
        headers, rows = sharing_vs_monopoly_table(
            {10: {"sharing_ms": 100.0, "monopoly_ms": 100.0}})
        assert rows[0][3] == pytest.approx(1.0)

    def test_creation_cost_table(self):
        headers, rows = creation_cost_table({1: 66.0, 9: 3165.0})
        assert rows == [[1, 66.0], [9, 3165.0]]


class TestEmit:
    def test_emit_writes_csv(self, tmp_path, capsys):
        emit("demo", ["a"], [[1]], output_dir=tmp_path)
        assert (tmp_path / "demo.csv").read_text().startswith("a")
        assert "demo" in capsys.readouterr().out

    def test_emit_lines(self, tmp_path, capsys):
        emit_lines("claims", ["first", "second"], output_dir=tmp_path)
        assert (tmp_path / "claims.txt").read_text() == "first\nsecond\n"
        assert "second" in capsys.readouterr().out
