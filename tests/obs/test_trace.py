"""Tests for the per-invocation span tracer."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.obs import Observability
from repro.obs.trace import (
    STAGE_ORDER,
    InvocationTracer,
    Span,
    Stage,
    load_jsonl,
    read_jsonl,
    span_records,
    write_jsonl,
)
from repro.sim.kernel import Environment


def record_one(tracer, inv_id="inv-0", arrival=0.0, cold=100.0,
               dispatched=150.0, exec_start=160.0, completed=200.0,
               responded=220.0, container="c-0"):
    """Drive one invocation through every stage with synthetic times."""
    tracer.invocation_arrived(inv_id, "f", arrival)
    tracer.invocation_dispatched(inv_id, dispatched, cold, container)
    tracer.execution_started(inv_id, exec_start, container)
    tracer.execution_completed(inv_id, completed)
    tracer.invocation_responded(inv_id, responded)


class TestTimelineConstruction:
    def test_stage_boundaries_from_stamps(self):
        tracer = InvocationTracer(enabled=True)
        record_one(tracer)
        (timeline,) = tracer.timelines()
        assert [s.stage for s in timeline.spans] == list(STAGE_ORDER)
        bounds = [(s.start_ms, s.end_ms) for s in timeline.spans]
        # QUEUED/COLD_START split retroactively at dispatched - cold.
        assert bounds == [(0.0, 50.0), (50.0, 150.0), (150.0, 160.0),
                          (160.0, 200.0), (200.0, 220.0)]
        assert timeline.end_to_end_ms == pytest.approx(200.0)
        assert timeline.response_latency_ms == pytest.approx(220.0)
        assert timeline.container_id == "c-0"
        assert timeline.validate() == []

    def test_stage_durations_sum_to_latencies(self):
        tracer = InvocationTracer(enabled=True)
        record_one(tracer)
        (timeline,) = tracer.timelines()
        component_sum = sum(timeline.duration_of(stage)
                            for stage in STAGE_ORDER[:-1])
        assert component_sum == pytest.approx(timeline.end_to_end_ms,
                                              abs=1e-6)
        full = component_sum + timeline.duration_of(Stage.RESPONDING)
        assert full == pytest.approx(timeline.response_latency_ms, abs=1e-6)

    def test_warm_hit_has_zero_cold_span(self):
        tracer = InvocationTracer(enabled=True)
        record_one(tracer, cold=0.0)
        (timeline,) = tracer.timelines()
        assert timeline.duration_of(Stage.COLD_START) == pytest.approx(0.0)
        assert timeline.validate() == []

    def test_failed_execution_flagged_with_error_attr(self):
        tracer = InvocationTracer(enabled=True)
        tracer.invocation_arrived("inv-0", "f", 0.0)
        tracer.invocation_dispatched("inv-0", 10.0, 0.0, "c-0")
        tracer.execution_started("inv-0", 10.0, "c-0")
        tracer.execution_failed("inv-0", 20.0, ValueError("boom"))
        tracer.invocation_responded("inv-0", 20.0)
        (timeline,) = tracer.timelines()
        assert timeline.failed
        executing = timeline.spans[3]
        assert executing.attrs == {"error": "ValueError"}
        # Failed timelines are excluded from invariant checking.
        assert tracer.validate_all() == []

    def test_completion_order_is_preserved(self):
        tracer = InvocationTracer(enabled=True)
        record_one(tracer, "inv-1")
        record_one(tracer, "inv-0", arrival=1.0, dispatched=151.0,
                   exec_start=161.0, completed=201.0, responded=221.0)
        assert [t.invocation_id for t in tracer.timelines()] == \
            ["inv-1", "inv-0"]
        assert len(tracer) == 2


class TestRecorderGuards:
    def test_disabled_tracer_records_nothing(self):
        tracer = InvocationTracer()
        record_one(tracer)
        tracer.container_event("c-0", "released", 5.0)
        assert len(tracer) == 0
        assert tracer.container_events == []

    def test_duplicate_arrival_rejected(self):
        tracer = InvocationTracer(enabled=True)
        tracer.invocation_arrived("inv-0", "f", 0.0)
        with pytest.raises(SimulationError):
            tracer.invocation_arrived("inv-0", "f", 1.0)

    def test_unknown_invocation_ignored(self):
        tracer = InvocationTracer(enabled=True)
        tracer.invocation_dispatched("ghost", 1.0, 0.0, "c-0")
        tracer.execution_started("ghost", 1.0, "c-0")
        tracer.execution_completed("ghost", 2.0)
        tracer.invocation_responded("ghost", 2.0)
        assert len(tracer) == 0


class TestValidation:
    def test_gap_detected(self):
        timeline = InvocationTracer(enabled=True)
        record_one(timeline)
        (good,) = timeline.timelines()
        spans = list(good.spans)
        spans[2] = Span("inv-0", Stage.DISPATCHED, 151.0, 160.0)
        broken = type(good)(invocation_id="inv-0", function_id="f",
                            arrival_ms=0.0, spans=tuple(spans))
        problems = broken.validate()
        assert any("gap" in p for p in problems)

    def test_wrong_stage_order_detected(self):
        tracer = InvocationTracer(enabled=True)
        record_one(tracer)
        (good,) = tracer.timelines()
        reordered = type(good)(invocation_id="inv-0", function_id="f",
                               arrival_ms=0.0,
                               spans=tuple(reversed(good.spans)))
        assert any("canonical order" in p for p in reordered.validate())


class TestJsonlRoundTrip:
    def test_round_trip_with_decoration(self, tmp_path):
        tracer = InvocationTracer(enabled=True)
        record_one(tracer)
        tracer.container_event("c-0", "released", 220.0)
        path = tmp_path / "spans.jsonl"
        with open(path, "w") as handle:
            written = write_jsonl(handle, tracer,
                                  extra={"scheduler": "FaaSBatch"})
        records = read_jsonl(path)
        assert written == len(records) == 6
        spans = span_records(records)
        assert len(spans) == 5
        assert all(r["scheduler"] == "FaaSBatch" for r in records)
        assert spans[0]["function_id"] == "f"
        assert {r["type"] for r in records} == {"span", "container-event"}


class TestJsonlHardening:
    def test_truncated_trailing_line_skipped_with_count(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text('{"type": "span", "stage": "queued"}\n'
                        '{"type": "span", "sta')  # run killed mid-write
        records, skipped = load_jsonl(path)
        assert len(records) == 1
        assert skipped == 1
        assert read_jsonl(path) == records

    def test_malformed_interior_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"type": "span"}\n'
                        'garbage in the middle\n'
                        '{"type": "span"}\n')
        with pytest.raises(ValueError, match=r"corrupt\.jsonl:2"):
            load_jsonl(path)

    def test_file_with_only_garbage_raises(self, tmp_path):
        # A sole unparseable line is corruption, not a truncated tail.
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError, match=r"garbage\.jsonl:1"):
            load_jsonl(path)

    def test_clean_file_reports_zero_skipped(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        path.write_text('{"type": "span"}\n\n{"type": "annotation"}\n')
        records, skipped = load_jsonl(path)
        assert len(records) == 2  # blank lines ignored
        assert skipped == 0

    def test_empty_file_is_fine(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_jsonl(path) == ([], 0)


class TestObservabilityBundle:
    def test_defaults_are_disabled_tracer_and_live_metrics(self):
        obs = Observability()
        assert not obs.tracer.enabled
        obs.metrics.counter("x").inc()
        assert obs.metrics.counter("x").value == 1.0

    def test_tracing_flag_enables_tracer(self):
        assert Observability(tracing=True).tracer.enabled

    def test_bind_publishes_sim_time_gauge(self):
        env = Environment()
        obs = Observability()
        obs.bind(env)
        obs.bind(env)  # idempotent

        def ticker():
            yield env.timeout(42.0)

        env.process(ticker())
        env.run()
        assert obs.metrics.gauge("sim.time_ms").value == pytest.approx(42.0)
