"""Live trace streaming: rotation, incremental polling, wall tolerance."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.analysis.breakdown import check_trace_invariants
from repro.gateway import demo_platform
from repro.local import LocalPlatformConfig
from repro.obs import Observability
from repro.obs.trace import (
    TIME_TOLERANCE_MS,
    WALL_TIME_TOLERANCE_MS,
    InvocationTracer,
    RotatingJsonlWriter,
    Span,
    Stage,
    TraceStreamer,
    load_jsonl,
    read_jsonl,
)


def record(n: int) -> dict:
    return {"type": "annotation", "kind": "tick", "n": n}


class TestRotatingJsonlWriter:
    def test_appends_and_counts_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RotatingJsonlWriter(path) as writer:
            for n in range(5):
                writer.write(record(n))
            assert writer.lines_written == 5
            assert writer.rotations == 0
        records = read_jsonl(path)
        assert [r["n"] for r in records] == list(range(5))

    def test_rotates_and_shifts_backups(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        line_bytes = len(json.dumps(record(0), sort_keys=True)) + 1
        # Room for exactly two lines per generation.
        with RotatingJsonlWriter(path, max_bytes=2 * line_bytes,
                                 backups=2) as writer:
            for n in range(7):
                writer.write(record(n))
            assert writer.rotations == 3
        # Live file holds the newest tail; .1 is the next-newest
        # generation; the generation beyond ``backups`` was dropped.
        assert [r["n"] for r in read_jsonl(path)] == [6]
        assert [r["n"] for r in read_jsonl(f"{path}.1")] == [4, 5]
        assert [r["n"] for r in read_jsonl(f"{path}.2")] == [2, 3]
        assert not os.path.exists(f"{path}.3")

    def test_zero_backups_truncates_in_place(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        line_bytes = len(json.dumps(record(0), sort_keys=True)) + 1
        with RotatingJsonlWriter(path, max_bytes=2 * line_bytes,
                                 backups=0) as writer:
            for n in range(5):
                writer.write(record(n))
            assert writer.rotations == 2
        assert [r["n"] for r in read_jsonl(path)] == [4]
        assert not os.path.exists(f"{path}.1")

    def test_single_oversized_line_still_writes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RotatingJsonlWriter(path, max_bytes=8, backups=1) as writer:
            writer.write({"big": "x" * 64})
            # An empty file never rotates, however large the line.
            assert writer.rotations == 0

    def test_rejects_bad_bounds(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            RotatingJsonlWriter(tmp_path / "t.jsonl", max_bytes=0)
        with pytest.raises(ValueError, match="backups"):
            RotatingJsonlWriter(tmp_path / "t.jsonl", backups=-1)

    def test_each_generation_is_self_contained_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        line_bytes = len(json.dumps(record(0), sort_keys=True)) + 1
        with RotatingJsonlWriter(path, max_bytes=3 * line_bytes,
                                 backups=3) as writer:
            for n in range(8):
                writer.write(record(n))
        for generation in (str(path), f"{path}.1", f"{path}.2"):
            records, skipped = load_jsonl(generation)
            assert skipped == 0
            assert records


def make_span(invocation_id: str, stage: Stage,
              start: float, end: float) -> Span:
    return Span(invocation_id, stage, start, end)


def drive_one_invocation(tracer: InvocationTracer, invocation_id: str,
                         base_ms: float) -> None:
    tracer.invocation_arrived(invocation_id, "echo", base_ms)
    tracer.invocation_dispatched(invocation_id, base_ms + 2.0,
                                 cold_start_ms=1.0, container_id="c-0")
    tracer.execution_started(invocation_id, base_ms + 3.0, "c-0")
    tracer.execution_completed(invocation_id, base_ms + 5.0)
    tracer.invocation_responded(invocation_id, base_ms + 5.5)


class TestTraceStreamer:
    def test_polls_are_incremental(self, tmp_path):
        tracer = InvocationTracer(enabled=True)
        writer = RotatingJsonlWriter(tmp_path / "trace.jsonl")
        streamer = TraceStreamer(tracer, writer,
                                 extra={"scheduler": "faasbatch"})

        drive_one_invocation(tracer, "inv-0", 0.0)
        tracer.container_event("c-0", "cold-start-begin", 0.0)
        assert streamer.poll() == 6  # 5 spans + 1 container event
        assert streamer.poll() == 0  # nothing new -> nothing rewritten

        drive_one_invocation(tracer, "inv-1", 10.0)
        tracer.annotation("fault", 11.0, what="crash")
        assert streamer.close() == 6  # final drain: 5 spans + annotation

        records = read_jsonl(tmp_path / "trace.jsonl")
        assert len(records) == 12
        assert all(r["scheduler"] == "faasbatch" for r in records)
        span_ids = [r["invocation_id"] for r in records
                    if r["type"] == "span"]
        assert span_ids == ["inv-0"] * 5 + ["inv-1"] * 5
        assert records[-1]["type"] == "annotation"

    def test_poll_builds_only_the_new_timelines(self, tmp_path,
                                                monkeypatch):
        visited = []
        timeline = InvocationTracer._timeline

        def counting_timeline(tracer, invocation_id):
            visited.append(invocation_id)
            return timeline(tracer, invocation_id)

        monkeypatch.setattr(InvocationTracer, "_timeline", counting_timeline)
        tracer = InvocationTracer(enabled=True)
        streamer = TraceStreamer(
            tracer, RotatingJsonlWriter(tmp_path / "trace.jsonl"))
        for index in range(3):
            drive_one_invocation(tracer, f"inv-{index}", float(index))
        assert streamer.poll() == 15
        assert visited == ["inv-0", "inv-1", "inv-2"]
        for index in range(3, 5):
            drive_one_invocation(tracer, f"inv-{index}", float(index))
        assert streamer.close() == 10
        # The second poll built the two new timelines and touched no other.
        assert visited == ["inv-0", "inv-1", "inv-2", "inv-3", "inv-4"]

    def test_poll_holds_the_provided_lock(self, tmp_path):
        lock = threading.Lock()
        tracer = InvocationTracer(enabled=True)
        streamer = TraceStreamer(
            tracer, RotatingJsonlWriter(tmp_path / "trace.jsonl"),
            lock=lock)
        drive_one_invocation(tracer, "inv-0", 0.0)
        with lock:
            # Re-entering from another thread must block; from here the
            # streamer cannot poll concurrently with a publisher.
            assert not lock.acquire(blocking=False)
        assert streamer.close() == 5


class TestWallClockTolerance:
    def jittered_timeline(self, jitter_ms: float) -> "InvocationTimeline":
        """A timeline whose stage boundaries carry float rounding noise.

        Wall-clock spans are stamped by different threads; adjacent spans
        may not share the exact float at their boundary, unlike the
        simulator's exact-replay timelines.
        """
        from repro.obs.trace import InvocationTimeline
        spans = (
            make_span("inv-0", Stage.QUEUED, 0.0, 1.0),
            make_span("inv-0", Stage.COLD_START, 1.0, 2.0),
            make_span("inv-0", Stage.DISPATCHED, 2.0, 3.0 + jitter_ms),
            make_span("inv-0", Stage.EXECUTING, 3.0, 5.0),
            make_span("inv-0", Stage.RESPONDING, 5.0, 5.5),
        )
        return InvocationTimeline("inv-0", "echo", 0.0, spans)

    def test_wall_tolerance_absorbs_clock_skew(self):
        jitter = 50 * TIME_TOLERANCE_MS  # visible to the sim tolerance
        assert jitter < WALL_TIME_TOLERANCE_MS
        timeline = self.jittered_timeline(jitter)
        assert timeline.validate()  # simulator default: too strict
        assert timeline.validate(
            tolerance_ms=WALL_TIME_TOLERANCE_MS) == []

    def test_wall_tolerance_still_catches_real_gaps(self):
        timeline = self.jittered_timeline(10 * WALL_TIME_TOLERANCE_MS)
        problems = timeline.validate(tolerance_ms=WALL_TIME_TOLERANCE_MS)
        assert any("gap" in problem for problem in problems)

    def test_live_platform_traces_validate_at_wall_tolerance(self):
        """Regression: gateway-tier traces must pass the wall tolerance."""
        obs = Observability(tracing=True)
        platform = demo_platform(LocalPlatformConfig(cold_start_seconds=0.0),
                                 obs=obs)
        try:
            group = platform.submit_group(
                "echo", [{"n": i} for i in range(6)])
            platform.drain(timeout=10.0)
            assert [invocation.result for invocation in group] \
                == [{"n": n} for n in range(6)]
        finally:
            platform.shutdown()
        assert len(obs.tracer) == 6
        check_trace_invariants(obs.tracer,
                               tolerance_ms=WALL_TIME_TOLERANCE_MS)
