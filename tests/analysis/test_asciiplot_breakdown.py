"""Tests for ASCII plotting and latency-breakdown analysis."""

from __future__ import annotations

import pytest

from repro.analysis.asciiplot import SERIES_MARKS, render_cdf_plot
from repro.analysis.breakdown import (
    breakdown_table,
    summarize_components,
)
from repro.baselines import VanillaScheduler
from repro.common.cdf import EmpiricalCdf
from repro.common.errors import ReproError
from repro.core import FaaSBatchScheduler
from repro.platformsim import run_experiment
from repro.workload import cpu_workload_trace, fib_function_spec


class TestCdfPlot:
    def test_basic_rendering(self):
        cdfs = {"fast": EmpiricalCdf([1.0, 2.0, 5.0, 10.0]),
                "slow": EmpiricalCdf([100.0, 200.0, 500.0, 1000.0])}
        text = render_cdf_plot(cdfs, width=40, height=8, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "1.00 |" in lines[1]
        assert "legend: * fast   o slow" in text
        assert "log scale" in text
        # The fast series' marks appear left of the slow series' marks.
        body = [line for line in lines if "|" in line and "legend" not in line]
        first_fast = min(line.find("*") for line in body if "*" in line)
        first_slow = min(line.find("o") for line in body if "o" in line)
        assert first_fast < first_slow

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            render_cdf_plot({})

    def test_too_many_series_rejected(self):
        cdfs = {f"s{i}": EmpiricalCdf([1.0]) for i in
                range(len(SERIES_MARKS) + 1)}
        with pytest.raises(ReproError):
            render_cdf_plot(cdfs)

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ReproError):
            render_cdf_plot({"a": EmpiricalCdf([1.0])}, width=5, height=2)

    def test_zero_samples_clamped(self):
        cdfs = {"zeros": EmpiricalCdf([0.0, 0.0, 1.0])}
        text = render_cdf_plot(cdfs, width=30, height=6)
        assert "*" in text  # renders despite non-positive samples


class TestBreakdown:
    @pytest.fixture(scope="class")
    def results(self):
        trace = cpu_workload_trace(total=80)
        spec = fib_function_spec()
        return [run_experiment(VanillaScheduler(), trace, [spec]),
                run_experiment(FaaSBatchScheduler(), trace, [spec])]

    def test_components_cover_total(self, results):
        for result in results:
            summaries = summarize_components(result)
            assert [s.component for s in summaries] == \
                ["scheduling", "cold_start", "queuing", "execution"]
            assert sum(s.share_of_total for s in summaries) == \
                pytest.approx(1.0)
            mean_total = sum(s.mean_ms for s in summaries)
            assert mean_total == pytest.approx(
                result.latency_stats().mean, rel=1e-6)

    def test_breakdown_table_shape(self, results):
        headers, rows = breakdown_table(results)
        assert len(rows) == 2 * 4
        assert headers[0] == "scheduler"
