"""Per-invocation span tracer: typed stages with exact start/end times.

The paper's §V analysis is built on latency *breakdowns* — scheduling vs.
cold start vs. queueing vs. execution (Figs. 11/12).  The tracer records
each invocation's journey as a contiguous sequence of typed spans:

``QUEUED → COLD_START → DISPATCHED → EXECUTING → RESPONDING``

* ``QUEUED``      arrival → scheduling complete (window wait + the
                  platform's dispatch/launch decision work; the paper's
                  *scheduling latency*, cold start already subtracted);
* ``COLD_START``  container provisioning attributed to this invocation
                  (zero-length on a warm hit);
* ``DISPATCHED``  handed to the container → execution slot granted (the
                  paper's *queuing latency*, Kraken's serial-queue penalty);
* ``EXECUTING``   handler running → completion (*execution latency*);
* ``RESPONDING``  completion → response returned to the caller (the group
                  barrier of §III-C; zero-length under early return).

Invariants (checked by :meth:`InvocationTimeline.validate`): spans are
monotone and gap-free, the first four stages sum to the invocation's
end-to-end latency and all five to its response latency, within 1e-6 ms.

The tracer also records **container events** (cold-start begin/end, batch
start, release, expiry, stale eviction) so a per-container timeline can be
reconstructed with :meth:`InvocationTracer.container_timeline`.

Tracing is purely observational: recording never creates simulation events,
so a run with tracing enabled is byte-identical to one without.  Recording
stores plain stamps; the span objects are built when first read.
"""

from __future__ import annotations

import enum
import json
import os
import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.common.errors import SimulationError

#: Tolerance for the sum/contiguity invariants, in milliseconds — sized
#: for *simulated* timestamps, which replay exact event times.
TIME_TOLERANCE_MS = 1e-6

#: Tolerance for spans stamped from a real clock (the live gateway).
#: Wall timestamps are float milliseconds since the platform epoch taken
#: from a monotonic clock on multiple threads; the stage boundaries reuse
#: the same floats so timelines are still contiguous, but sums of large
#: magnitudes accumulate rounding far beyond the simulator's 1e-6 ms.
#: One microsecond absorbs that while still catching real gaps.
WALL_TIME_TOLERANCE_MS = 1e-3

#: Shared immutable empty attrs — most spans/events carry none, so a
#: per-instance dict would be pure allocation churn on the hot path.
_EMPTY_ATTRS: Mapping[str, object] = MappingProxyType({})


def _empty_attrs() -> Mapping[str, object]:
    """Default factory returning the shared proxy (no dict per instance)."""
    return _EMPTY_ATTRS


class Stage(enum.Enum):
    """Typed stages of one invocation, in canonical order."""

    QUEUED = "queued"
    COLD_START = "cold-start"
    DISPATCHED = "dispatched"
    EXECUTING = "executing"
    RESPONDING = "responding"


#: Canonical stage order; timelines must follow it without gaps.
STAGE_ORDER: Tuple[Stage, ...] = (
    Stage.QUEUED, Stage.COLD_START, Stage.DISPATCHED,
    Stage.EXECUTING, Stage.RESPONDING,
)

#: Stage → the paper's §IV latency component (RESPONDING is the group
#: barrier on top of the paper's four-way split).
STAGE_TO_COMPONENT: Dict[Stage, str] = {
    Stage.QUEUED: "scheduling",
    Stage.COLD_START: "cold_start",
    Stage.DISPATCHED: "queuing",
    Stage.EXECUTING: "execution",
    Stage.RESPONDING: "response_wait",
}


@dataclass(frozen=True, slots=True)
class Span:
    """One typed stage of one invocation, ``[start_ms, end_ms]``.

    Unit contract: ``start_ms``/``end_ms`` are float milliseconds on the
    *emitting platform's clock* — simulated time for the DES tiers
    (:mod:`repro.platformsim`, :mod:`repro.cluster`), wall-clock time
    since the platform epoch for the live gateway
    (:mod:`repro.local`).  The two are indistinguishable on the wire;
    consumers validating invariants must pick the matching tolerance
    (:data:`TIME_TOLERANCE_MS` vs :data:`WALL_TIME_TOLERANCE_MS`).
    """

    invocation_id: str
    stage: Stage
    start_ms: float
    end_ms: float
    container_id: Optional[str] = None
    attrs: Mapping[str, object] = field(default_factory=_empty_attrs)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "type": "span",
            "invocation_id": self.invocation_id,
            "stage": self.stage.value,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
        }
        if self.container_id is not None:
            out["container_id"] = self.container_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


@dataclass(frozen=True, slots=True)
class ContainerEvent:
    """One point event in a container's life (start, batch, release, ...)."""

    container_id: str
    kind: str
    time_ms: float
    attrs: Mapping[str, object] = field(default_factory=_empty_attrs)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "type": "container-event",
            "container_id": self.container_id,
            "kind": self.kind,
            "time_ms": self.time_ms,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


@dataclass(frozen=True, slots=True)
class Annotation:
    """One free-form point event (fault injections, recovery actions).

    Faults and resilience decisions don't belong to a single invocation
    span (a crash kills many; a breaker transition belongs to a function),
    so they are recorded as typed annotations alongside the span stream.
    """

    kind: str
    time_ms: float
    attrs: Mapping[str, object] = field(default_factory=_empty_attrs)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "type": "annotation",
            "kind": self.kind,
            "time_ms": self.time_ms,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


@dataclass(frozen=True, slots=True)
class InvocationTimeline:
    """The complete, ordered span sequence of one invocation."""

    invocation_id: str
    function_id: str
    arrival_ms: float
    spans: Tuple[Span, ...]
    failed: bool = False

    def duration_of(self, stage: Stage) -> float:
        return sum(s.duration_ms for s in self.spans if s.stage is stage)

    @property
    def responded_ms(self) -> float:
        return self.spans[-1].end_ms

    @property
    def completed_ms(self) -> float:
        """End of the EXECUTING span (start of the response wait)."""
        for span in reversed(self.spans):
            if span.stage is Stage.EXECUTING:
                return span.end_ms
        raise SimulationError(
            f"{self.invocation_id} has no EXECUTING span")

    @property
    def end_to_end_ms(self) -> float:
        """Arrival → completion (the paper's invocation latency)."""
        return self.completed_ms - self.arrival_ms

    @property
    def response_latency_ms(self) -> float:
        """Arrival → response (what the caller experiences)."""
        return self.responded_ms - self.arrival_ms

    @property
    def container_id(self) -> Optional[str]:
        for span in self.spans:
            if span.container_id is not None:
                return span.container_id
        return None

    def validate(self, tolerance_ms: float = TIME_TOLERANCE_MS) -> List[str]:
        """Return human-readable invariant violations (empty = valid)."""
        problems: List[str] = []
        if tuple(s.stage for s in self.spans) != STAGE_ORDER:
            problems.append(
                f"{self.invocation_id}: stages "
                f"{[s.stage.value for s in self.spans]} != canonical order")
            return problems
        if abs(self.spans[0].start_ms - self.arrival_ms) > tolerance_ms:
            problems.append(
                f"{self.invocation_id}: first span starts at "
                f"{self.spans[0].start_ms}, arrival was {self.arrival_ms}")
        for span in self.spans:
            if span.end_ms + tolerance_ms < span.start_ms:
                problems.append(
                    f"{self.invocation_id}: {span.stage.value} ends "
                    f"({span.end_ms}) before it starts ({span.start_ms})")
        for previous, current in zip(self.spans, self.spans[1:]):
            if abs(current.start_ms - previous.end_ms) > tolerance_ms:
                problems.append(
                    f"{self.invocation_id}: gap between "
                    f"{previous.stage.value} (ends {previous.end_ms}) and "
                    f"{current.stage.value} (starts {current.start_ms})")
        component_sum = sum(self.duration_of(stage)
                            for stage in STAGE_ORDER[:-1])
        if abs(component_sum - self.end_to_end_ms) > tolerance_ms:
            problems.append(
                f"{self.invocation_id}: stage durations sum to "
                f"{component_sum}, end-to-end latency is "
                f"{self.end_to_end_ms}")
        full_sum = component_sum + self.duration_of(Stage.RESPONDING)
        if abs(full_sum - self.response_latency_ms) > tolerance_ms:
            problems.append(
                f"{self.invocation_id}: all stages sum to {full_sum}, "
                f"response latency is {self.response_latency_ms}")
        return problems


class _OpenTrace:
    """Mutable per-invocation state while the invocation is in flight."""

    __slots__ = ("function_id", "arrival_ms", "stamps", "dispatched_ms",
                 "execution_start_ms", "completed_ms", "container_id",
                 "failed")

    def __init__(self, function_id: str, arrival_ms: float) -> None:
        self.function_id = function_id
        self.arrival_ms = arrival_ms
        #: Five stamps per closed stage, flat: ``stage, start_ms, end_ms,
        #: container_id, attrs`` — the positional fields of :class:`Span`
        #: after its id.  One flat list, not a tuple per stage, keeps a
        #: filed invocation to two objects.
        self.stamps: List[object] = []
        self.dispatched_ms: Optional[float] = None
        self.execution_start_ms: Optional[float] = None
        self.completed_ms: Optional[float] = None
        self.container_id: Optional[str] = None
        self.failed = False


def _build_timeline(invocation_id: str,
                    record: _OpenTrace) -> InvocationTimeline:
    """The span objects of one filed record (built once, on first read)."""
    fields = iter(record.stamps)
    return InvocationTimeline(
        invocation_id, record.function_id, record.arrival_ms,
        tuple([Span(invocation_id, *stage)
               for stage in zip(fields, fields, fields, fields, fields)]),
        record.failed)


def _built(raw: List[tuple], built: List, factory) -> List:
    """Extend *built* with ``factory(*stamp)`` for every new raw stamp."""
    if len(built) < len(raw):
        built.extend([factory(*stamp) for stamp in raw[len(built):]])
    return built


class InvocationTracer:
    """Records typed stage transitions for every traced invocation.

    Disabled by default: every recording method returns immediately, so the
    platform can call into the tracer unconditionally (its own hot paths
    test ``enabled`` first and skip the call).  Recording is pure
    observation — it never touches the simulation environment.

    Recording is cheap by construction: a stage is five plain stamps on
    the invocation's open record and a container event or annotation one
    tuple on a list.  The :class:`Span`, :class:`InvocationTimeline`,
    :class:`ContainerEvent` and :class:`Annotation` objects are built the
    first time a reader asks for them, then cached.  In the live tier the
    reader must hold the lock the recorders hold (``TraceStreamer`` takes
    it).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._open: Dict[str, _OpenTrace] = {}
        #: Responded invocations: the filed record until first read, then
        #: the timeline built from it.
        self._closed: Dict[str, Union[_OpenTrace, InvocationTimeline]] = {}
        self._order: List[str] = []  # completion order, deterministic
        self._events: List[tuple] = []
        self._event_objects: List[ContainerEvent] = []
        self._annotations: List[tuple] = []
        self._annotation_objects: List[Annotation] = []

    def enable(self) -> "InvocationTracer":
        self.enabled = True
        return self

    def disable(self) -> "InvocationTracer":
        self.enabled = False
        return self

    # -- recording (called by platform / container / pool) ----------------------

    def invocation_arrived(self, invocation_id: str, function_id: str,
                           time_ms: float) -> None:
        """The request hit the platform; opens the QUEUED stage."""
        if not self.enabled:
            return
        if invocation_id in self._open or invocation_id in self._closed:
            raise SimulationError(
                f"{invocation_id} arrived twice in the tracer")
        self._open[invocation_id] = _OpenTrace(function_id, time_ms)

    def invocation_dispatched(self, invocation_id: str, time_ms: float,
                              cold_start_ms: float,
                              container_id: str) -> None:
        """Handed to its container; splits QUEUED/COLD_START retroactively.

        The platform stamps dispatch *after* any cold start completes (§IV
        subtracts cold start from scheduling latency), so the boundary
        between the two spans is ``time_ms - cold_start_ms``.
        """
        if not self.enabled:
            return
        trace = self._open.get(invocation_id)
        if trace is None or trace.dispatched_ms is not None:
            return
        scheduling_end = time_ms - cold_start_ms
        trace.stamps += (
            Stage.QUEUED, trace.arrival_ms, scheduling_end, None, _EMPTY_ATTRS,
            Stage.COLD_START, scheduling_end, time_ms, container_id,
            _EMPTY_ATTRS)
        trace.dispatched_ms = time_ms
        trace.container_id = container_id

    def execution_started(self, invocation_id: str, time_ms: float,
                          container_id: str) -> None:
        """The container granted an execution slot; closes DISPATCHED."""
        if not self.enabled:
            return
        trace = self._open.get(invocation_id)
        if trace is None or trace.dispatched_ms is None:
            return
        trace.stamps += (Stage.DISPATCHED, trace.dispatched_ms, time_ms,
                         container_id, _EMPTY_ATTRS)
        trace.execution_start_ms = time_ms
        trace.container_id = container_id

    def execution_completed(self, invocation_id: str, time_ms: float) -> None:
        self._close_execution(invocation_id, time_ms, error=None)

    def execution_failed(self, invocation_id: str, time_ms: float,
                         error: BaseException) -> None:
        self._close_execution(invocation_id, time_ms, error=error)

    def _close_execution(self, invocation_id: str, time_ms: float,
                         error: Optional[BaseException]) -> None:
        if not self.enabled:
            return
        trace = self._open.get(invocation_id)
        if trace is None or trace.execution_start_ms is None:
            return
        attrs = _EMPTY_ATTRS if error is None \
            else {"error": type(error).__name__}
        trace.stamps += (Stage.EXECUTING, trace.execution_start_ms, time_ms,
                         trace.container_id, attrs)
        trace.completed_ms = time_ms
        trace.failed = error is not None

    def invocation_responded(self, invocation_id: str,
                             time_ms: float) -> None:
        """The caller got its response; closes RESPONDING and files the record."""
        if not self.enabled:
            return
        trace = self._open.pop(invocation_id, None)
        if trace is None or trace.completed_ms is None:
            return
        trace.stamps += (Stage.RESPONDING, trace.completed_ms, time_ms,
                         trace.container_id, _EMPTY_ATTRS)
        self._closed[invocation_id] = trace
        self._order.append(invocation_id)

    def container_event(self, container_id: str, kind: str, time_ms: float,
                        **attrs: object) -> None:
        if not self.enabled:
            return
        self._events.append((container_id, kind, time_ms, attrs))

    def annotation(self, kind: str, time_ms: float,
                   **attrs: object) -> None:
        """Record a point event outside any single invocation's timeline."""
        if not self.enabled:
            return
        self._annotations.append((kind, time_ms, attrs))

    # -- reconstruction ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._closed)

    @property
    def open_count(self) -> int:
        """Invocations arrived but not yet responded (0 after a clean run)."""
        return len(self._open)

    @property
    def container_events(self) -> List[ContainerEvent]:
        """Every container event in recording order (read-only)."""
        return _built(self._events, self._event_objects, ContainerEvent)

    @property
    def annotations(self) -> List[Annotation]:
        """Every annotation in recording order (read-only)."""
        return _built(self._annotations, self._annotation_objects,
                      Annotation)

    def _timeline(self, invocation_id: str) -> InvocationTimeline:
        entry = self._closed[invocation_id]
        if type(entry) is _OpenTrace:
            entry = self._closed[invocation_id] = \
                _build_timeline(invocation_id, entry)
        return entry  # type: ignore[return-value]

    def timeline(self, invocation_id: str) -> InvocationTimeline:
        if invocation_id not in self._closed:
            raise KeyError(f"no completed timeline for {invocation_id!r}")
        return self._timeline(invocation_id)

    def timelines(self) -> List[InvocationTimeline]:
        """All completed timelines, in completion order (deterministic)."""
        return self._timelines_from(0)

    def _timelines_from(self, start: int) -> List[InvocationTimeline]:
        """Completed timelines from the *start*-th completion on."""
        timeline = self._timeline
        return [timeline(i) for i in self._order[start:]]

    def spans(self) -> List[Span]:
        return [span for timeline in self.timelines()
                for span in timeline.spans]

    def container_timeline(self, container_id: str
                           ) -> List[Tuple[float, str, object]]:
        """Merged ``(time_ms, kind, payload)`` view of one container's life.

        Interleaves the container's point events with the execution spans it
        served, ordered by time (events before spans at equal times, then
        insertion order — deterministic).
        """
        entries: List[Tuple[float, int, int, str, object]] = []
        for index, event in enumerate(self.container_events):
            if event.container_id == container_id:
                entries.append((event.time_ms, 0, index, event.kind, event))
        for index, span in enumerate(self.spans()):
            if span.container_id == container_id \
                    and span.stage is Stage.EXECUTING:
                entries.append((span.start_ms, 1, index,
                                f"span:{span.stage.value}", span))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        return [(time_ms, kind, payload)
                for time_ms, _group, _index, kind, payload in entries]

    def validate_all(self,
                     tolerance_ms: float = TIME_TOLERANCE_MS) -> List[str]:
        """Invariant violations across every completed, successful timeline."""
        problems: List[str] = []
        for timeline in self.timelines():
            if timeline.failed:
                continue
            problems.extend(timeline.validate(tolerance_ms))
        return problems

    # -- export ------------------------------------------------------------------

    def to_jsonl(self, path, extra: Optional[Mapping[str, object]] = None
                 ) -> int:
        """Write spans + container events as JSON Lines; returns line count."""
        written = 0
        with open(path, "w") as handle:
            written += write_jsonl(handle, self, extra=extra)
        return written


def tracer_records(tracer: InvocationTracer,
                   extra: Optional[Mapping[str, object]] = None
                   ) -> List[Dict[str, object]]:
    """*tracer*'s span/event/annotation records as plain dicts.

    Spans carry their timeline's ``function_id``; every record is decorated
    with *extra* (e.g. ``{"scheduler": name}``).  This is the in-memory
    form that :func:`write_jsonl` serialises and the export/report layers
    consume directly.
    """
    return _records(tracer.timelines(), tracer.container_events,
                    tracer.annotations, dict(extra) if extra else {})


def _records(timelines: Iterable[InvocationTimeline],
             events: Iterable[ContainerEvent],
             annotations: Iterable[Annotation],
             decoration: Mapping[str, object]) -> List[Dict[str, object]]:
    records: List[Dict[str, object]] = []
    for timeline in timelines:
        for span in timeline.spans:
            record = span.to_dict()
            record["function_id"] = timeline.function_id
            record.update(decoration)
            records.append(record)
    for point in (*events, *annotations):
        record = point.to_dict()
        record.update(decoration)
        records.append(record)
    return records


def write_jsonl(handle, tracer: InvocationTracer,
                extra: Optional[Mapping[str, object]] = None) -> int:
    """Append *tracer*'s records to an open file handle (one JSON per line)."""
    written = 0
    for record in tracer_records(tracer, extra=extra):
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        written += 1
    return written


def load_jsonl(path) -> Tuple[List[Dict[str, object]], int]:
    """Load JSONL records, tolerating a truncated *trailing* line.

    A run killed mid-write leaves a partial final line; provided at least
    one record parsed before it, that tail is skipped and counted in the
    returned ``(records, skipped)`` pair.  A malformed line anywhere else —
    or a file whose only content is unparseable — raises ``ValueError``
    with the offending line number.
    """
    lines: List[Tuple[int, str]] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                lines.append((number, line))
    records: List[Dict[str, object]] = []
    for index, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError as error:
            if index == len(lines) - 1 and records:
                return records, 1
            raise ValueError(
                f"{path}:{number}: malformed JSONL record: {error}"
            ) from None
    return records, 0


def read_jsonl(path) -> List[Dict[str, object]]:
    """Load every record written by :func:`write_jsonl` (blank lines skipped).

    Truncated trailing lines are tolerated (see :func:`load_jsonl`); use
    :func:`load_jsonl` directly to learn whether a tail was dropped.
    """
    return load_jsonl(path)[0]


def span_records(records: Iterable[Mapping[str, object]]
                 ) -> List[Mapping[str, object]]:
    """Filter a JSONL record stream down to the span records."""
    return [r for r in records if r.get("type") == "span"]


#: Default rotation threshold for live trace files (bytes).
DEFAULT_TRACE_MAX_BYTES = 32 * 1024 * 1024

#: Rotated generations kept next to the live file (`.1` newest).
DEFAULT_TRACE_BACKUPS = 3


class RotatingJsonlWriter:
    """Size-rotated JSON Lines writer for live trace streaming.

    Records append to *path*; when the file would exceed ``max_bytes``
    it is rotated to ``path.1`` (existing generations shift up, the
    oldest beyond ``backups`` is dropped) and a fresh file is opened.
    Each generation is a self-contained JSONL file, so
    :func:`load_jsonl` / ``repro trace summarize`` work on any of them.
    Lines are flushed as written — a crash loses at most the partial
    trailing line :func:`load_jsonl` already tolerates.
    """

    def __init__(self, path,
                 max_bytes: int = DEFAULT_TRACE_MAX_BYTES,
                 backups: int = DEFAULT_TRACE_BACKUPS) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self.lines_written = 0
        self.rotations = 0
        self._handle = open(self.path, "w")
        self._size = 0

    def write(self, record: Mapping[str, object]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        encoded = len(line.encode("utf-8"))
        if self._size and self._size + encoded > self.max_bytes:
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self._size += encoded
        self.lines_written += 1

    def _rotate(self) -> None:
        self._handle.close()
        if self.backups == 0:
            pass  # the live file is simply truncated on reopen
        else:
            for index in range(self.backups - 1, 0, -1):
                source = f"{self.path}.{index}"
                if os.path.exists(source):
                    os.replace(source, f"{self.path}.{index + 1}")
            os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "w")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RotatingJsonlWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class TraceStreamer:
    """Incrementally drains a live tracer into a JSONL writer.

    The tracer's completed-timeline list, container-event list and
    annotation list are append-only, so each :meth:`poll` writes exactly
    the records that appeared since the previous poll.  The gateway's
    platform records from worker threads under its obs lock; pass that
    lock so polls snapshot a consistent prefix and build the new span
    objects under it.
    """

    def __init__(self, tracer: InvocationTracer, writer: RotatingJsonlWriter,
                 extra: Optional[Mapping[str, object]] = None,
                 lock: Optional[threading.Lock] = None) -> None:
        self.tracer = tracer
        self.writer = writer
        self._extra = dict(extra) if extra else {}
        self._lock = lock if lock is not None else threading.Lock()
        self._timelines_seen = 0
        self._events_seen = 0
        self._annotations_seen = 0

    def poll(self) -> int:
        """Stream everything newly completed; returns records written.

        Only the timelines completed since the previous poll are built.
        """
        tracer = self.tracer
        with self._lock:
            timelines = tracer._timelines_from(self._timelines_seen)
            events = tracer.container_events[self._events_seen:]
            annotations = tracer.annotations[self._annotations_seen:]
            self._timelines_seen += len(timelines)
            self._events_seen += len(events)
            self._annotations_seen += len(annotations)
        records = _records(timelines, events, annotations, self._extra)
        for record in records:
            self.writer.write(record)
        return len(records)

    def close(self) -> int:
        """Final drain, then close the underlying writer."""
        written = self.poll()
        self.writer.close()
        return written
