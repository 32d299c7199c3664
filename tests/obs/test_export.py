"""Chrome/Perfetto trace-event export: structure, determinism, golden file.

Regenerate the golden (only after an *intentional* format change) with
``PYTHONPATH=src python tests/obs/test_export.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.export import (
    chrome_trace,
    dump_chrome_trace,
    validate_chrome_trace,
)

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "chrome_trace_golden.json"


def _fixture_records():
    """A small hand-built record stream covering every record type."""
    def span(scheduler, invocation, stage, start, end, container=None):
        record = {"type": "span", "invocation_id": invocation,
                  "stage": stage, "start_ms": start, "end_ms": end,
                  "function_id": "fib-0", "scheduler": scheduler}
        if container is not None:
            record["container_id"] = container
        return record

    return [
        span("A", "i1", "queued", 0.0, 10.0),
        span("A", "i1", "cold-start", 10.0, 110.0, container="c1"),
        span("A", "i1", "dispatched", 110.0, 112.0, container="c1"),
        span("A", "i1", "executing", 112.0, 512.0, container="c1"),
        span("A", "i1", "responding", 512.0, 512.0, container="c1"),
        span("A", "i2", "queued", 5.0, 115.0),
        span("A", "i2", "executing", 115.0, 215.0, container="c1"),
        span("B", "i1", "queued", 0.0, 50.0),
        span("B", "i1", "executing", 50.0, 450.0, container="c9"),
        {"type": "container-event", "container_id": "c1",
         "kind": "cold-start-begin", "time_ms": 10.0, "scheduler": "A"},
        {"type": "annotation", "kind": "fault", "time_ms": 300.0,
         "attrs": {"target": "c1"}, "scheduler": "A"},
        {"type": "series", "name": "cpu.utilization", "scheduler": "A",
         "interval_ms": 1000.0, "base_interval_ms": 1000.0,
         "points": [[0.0, 0.0], [1000.0, 0.5]]},
    ]


class TestChromeTrace:
    @pytest.fixture()
    def payload(self):
        return chrome_trace(_fixture_records())

    def test_validates_cleanly(self, payload):
        assert validate_chrome_trace(payload) == []

    def test_metadata_names_every_process(self, payload):
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"A/platform", "A/c1", "B/platform", "B/c9"}

    def test_invocations_become_threads_with_stage_slices(self, payload):
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 9
        i1 = [e for e in slices if e["args"]["invocation_id"] == "i1"
              and e["args"].get("function_id") == "fib-0"]
        assert {e["name"] for e in i1} >= {"queued", "executing"}
        # i1 and i2 share container c1 under scheduler A: same pid,
        # distinct tids ordered by first span start (i1 at 0 < i2 at 5).
        a_slices = {e["args"]["invocation_id"]: e for e in slices
                    if e["pid"] == i1[0]["pid"]}
        assert a_slices["i1"]["tid"] < a_slices["i2"]["tid"]

    def test_timestamps_are_microseconds(self, payload):
        executing = [e for e in payload["traceEvents"]
                     if e["ph"] == "X" and e["name"] == "executing"
                     and e["dur"] == pytest.approx(400_000.0)]
        assert len(executing) == 2  # A/i1 (112→512 ms) and B/i1 (50→450 ms)

    def test_series_become_counter_tracks(self, payload):
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert [e["args"]["value"] for e in counters] == [0.0, 0.5]
        assert all(e["name"] == "cpu.utilization" for e in counters)

    def test_instants_for_events_and_annotations(self, payload):
        instants = {e["name"] for e in payload["traceEvents"]
                    if e["ph"] == "i"}
        assert instants == {"cold-start-begin", "fault"}

    def test_timed_events_sorted_by_ts(self, payload):
        timestamps = [e["ts"] for e in payload["traceEvents"]
                      if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)

    def test_write_is_byte_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        dump_chrome_trace(first, chrome_trace(_fixture_records()))
        dump_chrome_trace(second, chrome_trace(_fixture_records()))
        assert first.read_bytes() == second.read_bytes()

    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "trace.json"
        dump_chrome_trace(out, chrome_trace(_fixture_records()))
        assert out.read_bytes() == GOLDEN_PATH.read_bytes(), (
            "chrome export format changed; regenerate the golden with "
            "`PYTHONPATH=src python tests/obs/test_export.py` if intended")

    def test_golden_file_is_schema_valid(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert validate_chrome_trace(payload) == []


class TestValidator:
    def test_rejects_empty(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": []}) != []

    def test_rejects_unknown_phase(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 0}]})
        assert any("unknown ph" in p for p in problems)

    def test_rejects_missing_pid(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "tid": 0, "ts": 1.0, "dur": 1.0}]})
        assert any("missing pid" in p for p in problems)

    def test_rejects_non_monotonic_ts(self):
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "p"}},
            {"ph": "i", "name": "a", "pid": 1, "tid": 0, "ts": 5.0,
             "s": "p"},
            {"ph": "i", "name": "b", "pid": 1, "tid": 0, "ts": 4.0,
             "s": "p"},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("not monotonic" in p for p in problems)

    def test_rejects_unnamed_process(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "i", "name": "a", "pid": 3, "tid": 0,
                              "ts": 1.0}]})
        assert any("no process_name" in p for p in problems)

    def test_rejects_non_numeric_counter(self):
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "p"}},
            {"ph": "C", "name": "c", "pid": 1, "tid": 0, "ts": 1.0,
             "args": {"value": "high"}},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("numeric" in p for p in problems)


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    events = dump_chrome_trace(GOLDEN_PATH, chrome_trace(_fixture_records()))
    print(f"wrote {GOLDEN_PATH} ({events} events)")


if __name__ == "__main__":
    main()
