"""Tests for the real-Azure-trace file reader and trace builder."""

from __future__ import annotations

import csv
import random

import pytest

from repro.common.errors import WorkloadError
from repro.platformsim import run_experiment
from repro.core import FaaSBatchScheduler
from repro.workload.azurefile import (
    MINUTES_PER_DAY,
    AzureTraceBuilder,
    FunctionDurations,
    read_durations_csv,
    read_invocations_csv,
    write_sample_files,
)
from tests.traces import cpu_work_ms, function_ids


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("azure-trace")
    return write_sample_files(directory, functions=5, seed=42)


@pytest.fixture(scope="module")
def builder(sample_files):
    invocations_path, durations_path = sample_files
    return AzureTraceBuilder.from_files(invocations_path, durations_path,
                                        seed=7)


class TestReaders:
    def test_read_invocations(self, sample_files):
        rows = read_invocations_csv(sample_files[0])
        assert len(rows) == 5
        for row in rows:
            assert len(row.minute_counts) == MINUTES_PER_DAY
            assert row.daily_total >= 0
            assert row.trigger == "http"

    def test_read_durations(self, sample_files):
        rows = read_durations_csv(sample_files[1])
        assert len(rows) == 5
        for row in rows:
            probabilities = [p for p, _v in row.percentiles]
            assert probabilities == [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
            values = [v for _p, v in row.percentiles]
            assert values == sorted(values)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(WorkloadError):
            read_invocations_csv(path)
        with pytest.raises(WorkloadError):
            read_durations_csv(path)

    def test_short_row_rejected(self, tmp_path, sample_files):
        header = open(sample_files[0]).readline()
        path = tmp_path / "short.csv"
        path.write_text(header + "o,a,f,http,1,2\n")
        with pytest.raises(WorkloadError):
            read_invocations_csv(path)

    def test_non_monotone_percentiles_rejected(self, tmp_path, sample_files):
        with open(sample_files[1]) as handle:
            rows = list(csv.reader(handle))
        rows[1][7:] = ["100", "90", "80", "70", "60", "50", "40"]
        path = tmp_path / "bad_durations.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(WorkloadError):
            read_durations_csv(path)


class TestDurationSampling:
    def test_inverse_cdf_respects_percentiles(self):
        row = FunctionDurations(
            owner="o", app="a", function="f", average_ms=100.0, count=100,
            percentiles=((0.0, 10.0), (0.01, 12.0), (0.25, 50.0),
                         (0.50, 100.0), (0.75, 200.0), (0.99, 900.0),
                         (1.0, 1000.0)))
        rng = random.Random(0)
        samples = sorted(row.sample_duration_ms(rng) for _ in range(5_000))
        assert samples[0] >= 10.0
        assert samples[-1] <= 1000.0
        median = samples[len(samples) // 2]
        assert median == pytest.approx(100.0, rel=0.15)
        p25 = samples[len(samples) // 4]
        assert p25 == pytest.approx(50.0, rel=0.2)


class TestBuilder:
    def test_hottest_functions_ordered(self, builder):
        hottest = builder.hottest_functions(3)
        assert len(hottest) == 3
        totals = [builder._invocations[key].daily_total for key in hottest]
        assert totals == sorted(totals, reverse=True)

    def test_hottest_requires_positive(self, builder):
        with pytest.raises(WorkloadError):
            builder.hottest_functions(0)

    def test_build_trace_window(self, builder):
        hottest = builder.hottest_functions(2)
        trace = builder.build_trace(hottest, start_minute=0,
                                    end_minute=MINUTES_PER_DAY)
        expected = sum(builder._invocations[key].daily_total
                       for key in hottest)
        assert len(trace) == expected
        assert set(function_ids(trace)) <= set(hottest)

    def test_build_trace_deterministic(self, sample_files):
        a = AzureTraceBuilder.from_files(*sample_files, seed=7)
        b = AzureTraceBuilder.from_files(*sample_files, seed=7)
        keys = a.hottest_functions(2)
        trace_a = a.build_trace(keys)
        trace_b = b.build_trace(keys)
        assert [r.arrival_ms for r in trace_a] == \
            [r.arrival_ms for r in trace_b]

    def test_unknown_function_rejected(self, builder):
        with pytest.raises(WorkloadError):
            builder.build_trace(["app9:ghost"])

    def test_bad_minute_range_rejected(self, builder):
        with pytest.raises(WorkloadError):
            builder.build_trace(start_minute=100, end_minute=50)

    def test_specs_sample_plausible_durations(self, builder):
        keys = builder.hottest_functions(2)
        specs = builder.build_specs(keys)
        for spec, key in zip(specs, keys):
            durations_row = builder._durations[key]
            minimum = durations_row.percentiles[0][1]
            maximum = durations_row.percentiles[-1][1]
            for _ in range(50):
                profile = spec.build_profile(None)
                assert minimum - 1e-6 <= cpu_work_ms(profile) \
                    <= maximum + 1e-6

    def test_specs_require_duration_rows(self, builder):
        with pytest.raises(WorkloadError):
            builder.build_specs(["app0:no-durations-for-me"])

    def test_end_to_end_replay_through_faasbatch(self, builder):
        """The real-trace path composes with the experiment harness."""
        keys = builder.hottest_functions(2)
        counts = builder._invocations[keys[0]].minute_counts
        first_active = next(m for m, c in enumerate(counts) if c > 0)
        trace = builder.build_trace(
            keys, start_minute=first_active,
            end_minute=min(first_active + 30, MINUTES_PER_DAY))
        specs = builder.build_specs(keys)
        result = run_experiment(FaaSBatchScheduler(), trace, specs,
                                workload_label="azure-file")
        assert len(result.invocations) == len(trace)
        assert result.failure_count == 0
