"""Perfetto/Chrome trace-event export of a recorded run.

Converts the JSONL record stream produced by ``--trace`` (span records,
container lifecycle events, fault/retry annotations, sampled series) into
the Chrome trace-event JSON format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* each **container** becomes a *process* (``pid``), named
  ``<scheduler>/<container-id>``; a per-scheduler pseudo-process named
  ``<scheduler>/platform`` holds everything that happens before or outside
  any container;
* each **invocation** becomes a *thread* (``tid``) inside its container's
  process, with one complete slice (``ph: "X"``) per stage — the five-stage
  timeline renders as nested-width slices on the invocation's track;
* **container events** and **annotations** become instants (``ph: "i"``);
* each sampled **series** becomes a counter track (``ph: "C"``) on the
  scheduler's platform process.

All identifier assignment is sorted and the event list is ordered by
timestamp with deterministic tie-breaks, so two identical runs produce
byte-identical ``trace.json`` files.  Times are converted from simulated
milliseconds to the format's microseconds.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: ph values this exporter emits (a subset of the trace-event format).
_PHASES = ("M", "X", "i", "C")

#: Pseudo-container key for pre-dispatch work and platform-level events.
_PLATFORM = "platform"


def _label(record: Mapping[str, object]) -> str:
    return str(record.get("scheduler", "-"))


def _microseconds(ms: object) -> float:
    return round(float(ms) * 1000.0, 3)


def _span_container(records_of_invocation: List[Mapping[str, object]]) -> str:
    for span in records_of_invocation:
        container_id = span.get("container_id")
        if container_id is not None:
            return str(container_id)
    return _PLATFORM


def chrome_trace(records: Iterable[Mapping[str, object]]
                 ) -> Dict[str, object]:
    """Build the Chrome trace-event payload from a JSONL record stream."""
    records = list(records)
    spans = [r for r in records if r.get("type") == "span"]
    container_events = [r for r in records
                        if r.get("type") == "container-event"]
    annotations = [r for r in records if r.get("type") == "annotation"]
    series = [r for r in records if r.get("type") == "series"]

    # Group spans per invocation to find each invocation's home container.
    by_invocation: Dict[Tuple[str, str], List[Mapping[str, object]]] = {}
    for span in spans:
        key = (_label(span), str(span["invocation_id"]))
        by_invocation.setdefault(key, []).append(span)

    # -- pid assignment: sorted (scheduler, container) keys, platform first.
    process_keys = {(_label(r), _PLATFORM)
                    for r in records}  # one platform row per scheduler
    for key, invocation_spans in by_invocation.items():
        process_keys.add((key[0], _span_container(invocation_spans)))
    for event in container_events:
        process_keys.add((_label(event), str(event["container_id"])))
    pid_of: Dict[Tuple[str, str], int] = {
        key: pid for pid, key in enumerate(sorted(process_keys), start=1)}

    # -- tid assignment: per process, invocations ordered by first span.
    tid_of: Dict[Tuple[str, str], int] = {}
    per_process: Dict[Tuple[str, str],
                      List[Tuple[float, str, Tuple[str, str]]]] = {}
    for key, invocation_spans in by_invocation.items():
        scheduler, _invocation_id = key
        process = (scheduler, _span_container(invocation_spans))
        first_start = min(float(s["start_ms"]) for s in invocation_spans)
        per_process.setdefault(process, []).append(
            (first_start, key[1], key))
    for process, entries in per_process.items():
        entries.sort(key=lambda e: (e[0], e[1]))
        for tid, (_start, _invocation_id, key) in enumerate(entries, start=1):
            tid_of[key] = tid

    events: List[Dict[str, object]] = []
    # Process/thread naming metadata, in pid then tid order.
    for key in sorted(pid_of, key=lambda k: pid_of[k]):
        scheduler, container = key
        events.append({"ph": "M", "name": "process_name",
                       "pid": pid_of[key], "tid": 0,
                       "args": {"name": f"{scheduler}/{container}"}})
    for key, tid in sorted(tid_of.items(),
                           key=lambda item: (pid_of[(item[0][0],
                                                     _span_container(
                                                         by_invocation[item[0]]))],
                                             item[1])):
        scheduler, invocation_id = key
        process = (scheduler, _span_container(by_invocation[key]))
        events.append({"ph": "M", "name": "thread_name",
                       "pid": pid_of[process], "tid": tid,
                       "args": {"name": invocation_id}})

    timed: List[Tuple[float, int, int, int, Dict[str, object]]] = []
    sequence = 0

    def add(ts: float, pid: int, tid: int, event: Dict[str, object]) -> None:
        nonlocal sequence
        timed.append((ts, pid, tid, sequence, event))
        sequence += 1

    for key, invocation_spans in sorted(by_invocation.items()):
        scheduler, invocation_id = key
        process = (scheduler, _span_container(invocation_spans))
        pid, tid = pid_of[process], tid_of[key]
        for span in invocation_spans:
            ts = _microseconds(span["start_ms"])
            duration = _microseconds(
                float(span["end_ms"]) - float(span["start_ms"]))
            args: Dict[str, object] = {
                "invocation_id": invocation_id,
                "stage": str(span["stage"]),
            }
            if span.get("function_id") is not None:
                args["function_id"] = span["function_id"]
            if span.get("attrs"):
                args.update(dict(span["attrs"]))  # type: ignore[arg-type]
            add(ts, pid, tid, {"ph": "X", "cat": "invocation",
                               "name": str(span["stage"]), "pid": pid,
                               "tid": tid, "ts": ts, "dur": duration,
                               "args": args})

    for event in container_events:
        process = (_label(event), str(event["container_id"]))
        pid = pid_of[process]
        ts = _microseconds(event["time_ms"])
        args = {"container_id": str(event["container_id"])}
        if event.get("attrs"):
            args.update(dict(event["attrs"]))  # type: ignore[arg-type]
        add(ts, pid, 0, {"ph": "i", "cat": "container",
                         "name": str(event["kind"]), "pid": pid, "tid": 0,
                         "ts": ts, "s": "p", "args": args})

    for annotation in annotations:
        pid = pid_of[(_label(annotation), _PLATFORM)]
        ts = _microseconds(annotation["time_ms"])
        args = dict(annotation.get("attrs") or {})  # type: ignore[arg-type]
        add(ts, pid, 0, {"ph": "i", "cat": "annotation",
                         "name": str(annotation["kind"]), "pid": pid,
                         "tid": 0, "ts": ts, "s": "p", "args": args})

    for record in series:
        pid = pid_of[(_label(record), _PLATFORM)]
        name = str(record["name"])
        for time_ms, value in record.get("points", []):
            ts = _microseconds(time_ms)
            add(ts, pid, 0, {"ph": "C", "name": name, "pid": pid,
                             "tid": 0, "ts": ts,
                             "args": {"value": round(float(value), 6)}})

    timed.sort(key=lambda entry: entry[:4])
    events.extend(entry[4] for entry in timed)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.export",
            "spans": len(spans),
            "counters": len(series),
        },
    }


def dump_chrome_trace(path, payload: Mapping[str, object]) -> int:
    """Serialise a built payload to *path*; returns the event count.

    Keys are sorted so identical runs produce byte-identical files (the
    golden-file tests rely on this).
    """
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return len(payload["traceEvents"])  # type: ignore[arg-type]




def validate_chrome_trace(payload: Mapping[str, object]) -> List[str]:
    """Structural trace-event checks; returns problems (empty = valid).

    Checks the shape Perfetto/chrome://tracing require: a ``traceEvents``
    list whose events carry ``ph``/``pid``/``tid`` (plus ``ts``/``dur``
    where applicable), named processes, non-decreasing timestamps across
    the timed events, and counter samples with numeric values.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents must be a non-empty list"]
    named_pids = set()
    last_ts: Optional[float] = None
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"event {index}: unknown ph {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"event {index}: missing {field}")
        if ph == "M":
            if last_ts is not None:
                problems.append(
                    f"event {index}: metadata after timed events")
            if event.get("name") == "process_name":
                named_pids.add(event.get("pid"))
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {index}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {index}: ts {ts} < previous {last_ts} "
                "(not monotonic)")
        last_ts = float(ts)
        if ph == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"event {index}: bad dur {duration!r}")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                problems.append(
                    f"event {index}: counter args must be numeric")
    for index, event in enumerate(events):
        if isinstance(event, dict) and event.get("ph") != "M" \
                and event.get("pid") not in named_pids:
            problems.append(
                f"event {index}: pid {event.get('pid')!r} has no "
                "process_name metadata")
    return problems


__all__ = [
    "chrome_trace",
    "dump_chrome_trace",
    "validate_chrome_trace",
]
