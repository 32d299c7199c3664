"""Tests for trace records, CSV round trips and the workload generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.workload.durations import FIB_DURATION_MS
from repro.workload.generator import (
    FIB_FUNCTION_ID,
    IO_FUNCTION_ID,
    cpu_workload_trace,
    fib_family_specs,
    fib_function_spec,
    io_function_spec,
    io_workload_trace,
)
from repro.workload.trace import Trace, TraceRecord
from tests.traces import multi_function_trace


class TestTraceRecord:
    def test_negative_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            TraceRecord(arrival_ms=-1.0, function_id="f")

    def test_empty_function_rejected(self):
        with pytest.raises(WorkloadError):
            TraceRecord(arrival_ms=0.0, function_id="")


class TestTrace:
    def test_records_sorted_by_arrival(self):
        trace = Trace([TraceRecord(5.0, "f"), TraceRecord(1.0, "g")])
        assert [r.arrival_ms for r in trace] == [1.0, 5.0]

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            Trace([])

    def test_head(self):
        trace = Trace([TraceRecord(float(i), "f") for i in range(10)])
        head = trace.head(3)
        assert len(head) == 3
        assert head[2].arrival_ms == 2.0
        with pytest.raises(WorkloadError):
            trace.head(0)

    def test_function_ids_first_appearance_order(self):
        trace = Trace([TraceRecord(0.0, "b"), TraceRecord(1.0, "a"),
                       TraceRecord(2.0, "b")])
        assert trace.function_ids == ["b", "a"]

    def test_duration(self):
        trace = Trace([TraceRecord(10.0, "f"), TraceRecord(250.0, "f")])
        assert trace.duration_ms == 240.0

    def test_csv_round_trip(self, tmp_path):
        trace = Trace([TraceRecord(1.5, "f", payload=30),
                       TraceRecord(2.5, "g", payload={"k": [1, 2]})])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert len(loaded) == 2
        assert loaded[0].payload == 30
        assert loaded[1].payload == {"k": [1, 2]}

    def test_csv_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(WorkloadError):
            Trace.from_csv(path)

    @settings(max_examples=50, deadline=None)
    @given(arrivals=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30))
    def test_round_trip_preserves_arrivals(self, tmp_path_factory, arrivals):
        directory = tmp_path_factory.mktemp("traces")
        trace = Trace([TraceRecord(a, "f", payload=i)
                       for i, a in enumerate(arrivals)])
        path = directory / "t.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert [r.arrival_ms for r in loaded] == \
            [r.arrival_ms for r in trace]


class TestGenerator:
    def test_cpu_workload_shape(self):
        trace = cpu_workload_trace()
        assert len(trace) == 800
        assert trace.function_ids == [FIB_FUNCTION_ID]
        for record in trace:
            assert record.payload in FIB_DURATION_MS

    def test_io_workload_is_replay_prefix(self):
        io_trace = io_workload_trace()
        assert len(io_trace) == 400
        assert io_trace.function_ids == [IO_FUNCTION_ID]
        cpu_trace = cpu_workload_trace()
        # Same arrival timestamps as the first 400 of the full replay.
        assert [r.arrival_ms for r in io_trace] == \
            [r.arrival_ms for r in cpu_trace][:400]

    def test_workloads_deterministic(self):
        a = [(r.arrival_ms, r.payload) for r in cpu_workload_trace(seed=13)]
        b = [(r.arrival_ms, r.payload) for r in cpu_workload_trace(seed=13)]
        assert a == b

    def test_fib_spec_builds_profiles(self):
        spec = fib_function_spec()
        profile = spec.build_profile(26)
        assert profile.total_cpu_work_ms == pytest.approx(45.0)

    def test_io_spec_builds_creation_profile(self):
        spec = io_function_spec()
        profile = spec.build_profile(0)
        assert len(profile.client_creations) == 1

    def test_io_invocations_share_creation_arguments(self):
        """All I/O invocations pass the same credentials (Listing 1), so
        their creation-argument hashes coincide — the multiplexer's
        sharing opportunity."""
        spec = io_function_spec()
        hashes = {spec.build_profile(i).client_creations[0].args_hash
                  for i in range(10)}
        assert len(hashes) == 1

    def test_multi_function_trace_round_robin(self):
        trace = multi_function_trace(functions=4, total=100)
        assert len(trace.function_ids) == 4
        specs = fib_family_specs(4)
        assert sorted(s.function_id for s in specs) == \
            sorted(trace.function_ids)

    def test_multi_function_requires_positive(self):
        with pytest.raises(ValueError):
            multi_function_trace(functions=0)
