"""Differential property: the stamp-recording tracer vs the eager one.

:class:`EagerTracer` below is a frozen copy of the tracer as it was before
recording moved to plain stamps: it builds every :class:`Span`, each
:class:`InvocationTimeline` and each point-event object while the
simulation runs.  :class:`InvocationTracer` records tuples and builds the
same objects when they are first read.  For any sequence of recording
calls — duplicate and out-of-order stages, failures, retry ids, container
events, annotations, reads in between — both must export the same bytes
and reconstruct the same timelines.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.obs.trace import (
    TIME_TOLERANCE_MS,
    _EMPTY_ATTRS,
    Annotation,
    ContainerEvent,
    InvocationTimeline,
    InvocationTracer,
    Span,
    Stage,
    tracer_records,
)


class _EagerOpenTrace:
    """Mutable per-invocation state while the invocation is in flight."""

    __slots__ = ("function_id", "arrival_ms", "spans", "dispatched_ms",
                 "execution_start_ms", "completed_ms", "container_id",
                 "failed")

    def __init__(self, function_id: str, arrival_ms: float) -> None:
        self.function_id = function_id
        self.arrival_ms = arrival_ms
        self.spans: List[Span] = []
        self.dispatched_ms: Optional[float] = None
        self.execution_start_ms: Optional[float] = None
        self.completed_ms: Optional[float] = None
        self.container_id: Optional[str] = None
        self.failed = False


class EagerTracer:
    """The tracer as it was: span objects built while recording."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._open: Dict[str, _EagerOpenTrace] = {}
        self._timelines: Dict[str, InvocationTimeline] = {}
        self._order: List[str] = []  # completion order, deterministic
        self.container_events: List[ContainerEvent] = []
        self.annotations: List[Annotation] = []

    def enable(self) -> "EagerTracer":
        self.enabled = True
        return self

    def disable(self) -> "EagerTracer":
        self.enabled = False
        return self

    # -- recording (called by platform / container / pool) ----------------------

    def invocation_arrived(self, invocation_id: str, function_id: str,
                           time_ms: float) -> None:
        """The request hit the platform; opens the QUEUED stage."""
        if not self.enabled:
            return
        if invocation_id in self._open or invocation_id in self._timelines:
            raise SimulationError(
                f"{invocation_id} arrived twice in the tracer")
        self._open[invocation_id] = _EagerOpenTrace(function_id, time_ms)

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
        trace.spans.append(Span(invocation_id, Stage.QUEUED,
                                trace.arrival_ms, scheduling_end))
        trace.spans.append(Span(invocation_id, Stage.COLD_START,
                                scheduling_end, time_ms,
                                container_id=container_id))
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
        trace.spans.append(Span(invocation_id, Stage.DISPATCHED,
                                trace.dispatched_ms, time_ms,
                                container_id=container_id))
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
        trace.spans.append(Span(invocation_id, Stage.EXECUTING,
                                trace.execution_start_ms, time_ms,
                                container_id=trace.container_id,
                                attrs=attrs))
        trace.completed_ms = time_ms
        trace.failed = error is not None

    def invocation_responded(self, invocation_id: str,
                             time_ms: float) -> None:
        """The caller got its response; closes RESPONDING and the timeline."""
        if not self.enabled:
            return
        trace = self._open.pop(invocation_id, None)
        if trace is None or trace.completed_ms is None:
            return
        trace.spans.append(Span(invocation_id, Stage.RESPONDING,
                                trace.completed_ms, time_ms,
                                container_id=trace.container_id))
        timeline = InvocationTimeline(
            invocation_id=invocation_id,
            function_id=trace.function_id,
            arrival_ms=trace.arrival_ms,
            spans=tuple(trace.spans),
            failed=trace.failed)
        self._timelines[invocation_id] = timeline
        self._order.append(invocation_id)

    def container_event(self, container_id: str, kind: str, time_ms: float,
                        **attrs: object) -> None:
        if not self.enabled:
            return
        self.container_events.append(
            ContainerEvent(container_id, kind, time_ms, attrs))

    def annotation(self, kind: str, time_ms: float,
                   **attrs: object) -> None:
        """Record a point event outside any single invocation's timeline."""
        if not self.enabled:
            return
        self.annotations.append(Annotation(kind, time_ms, attrs))

    # -- reconstruction ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._timelines)

    def timelines(self) -> List[InvocationTimeline]:
        """All completed timelines, in completion order (deterministic)."""
        return [self._timelines[i] for i in self._order]

    def spans(self) -> List[Span]:
        return [span for timeline in self.timelines()
                for span in timeline.spans]

    def validate_all(self,
                     tolerance_ms: float = TIME_TOLERANCE_MS) -> List[str]:
        """Invariant violations across every completed, successful timeline."""
        problems: List[str] = []
        for timeline in self.timelines():
            if timeline.failed:
                continue
            problems.extend(timeline.validate(tolerance_ms))
        return problems


IDS = ("inv-0", "inv-1", "inv-2", "inv-1#a2", "inv-1#a3")
CONTAINERS = ("container-0", "container-1")
TIMES = st.sampled_from((0.0, 1.5, 10.0, 10.0, 42.25, 100.0))
ATTRS = st.dictionaries(st.sampled_from(("batch_size", "victims", "cap")),
                        st.integers(0, 9), max_size=2)

CALLS = st.one_of(
    st.tuples(st.just("invocation_arrived"), st.sampled_from(IDS),
              st.sampled_from(("f", "g")), TIMES),
    st.tuples(st.just("invocation_dispatched"), st.sampled_from(IDS),
              TIMES, st.sampled_from((0.0, 1.5, 8.0)),
              st.sampled_from(CONTAINERS)),
    st.tuples(st.just("execution_started"), st.sampled_from(IDS), TIMES,
              st.sampled_from(CONTAINERS)),
    st.tuples(st.just("execution_completed"), st.sampled_from(IDS), TIMES),
    st.tuples(st.just("execution_failed"), st.sampled_from(IDS), TIMES,
              st.sampled_from((ValueError("boom"), TimeoutError()))),
    st.tuples(st.just("invocation_responded"), st.sampled_from(IDS), TIMES),
    st.tuples(st.just("container_event"), st.sampled_from(CONTAINERS),
              st.sampled_from(("released", "batch-started")), TIMES, ATTRS),
    st.tuples(st.just("annotation"),
              st.sampled_from(("retry-scheduled", "hedge-won")), TIMES,
              ATTRS),
    st.tuples(st.just("read")),
    st.tuples(st.just("toggle")),
)


@st.composite
def lifecycle(draw):
    """One invocation's stages in order, each dropped or repeated."""
    invocation_id = draw(st.sampled_from(IDS))
    container = draw(st.sampled_from(CONTAINERS))
    ending = draw(st.sampled_from((
        ("execution_completed", invocation_id),
        ("execution_failed", invocation_id, ValueError("boom")))))
    stages = [
        ("invocation_arrived", invocation_id, "f"),
        ("invocation_dispatched", invocation_id),
        ("execution_started", invocation_id),
        ending,
        ("invocation_responded", invocation_id),
    ]
    calls = []
    for stage in stages:
        for _ in range(draw(st.sampled_from((1, 1, 1, 0, 2)))):
            name, *args = stage
            if name == "invocation_dispatched":
                args += [draw(TIMES), draw(st.sampled_from((0.0, 8.0))),
                         draw(st.sampled_from(CONTAINERS))]
            elif name == "execution_started":
                args += [draw(TIMES), container]
            elif name == "execution_failed":
                args.insert(1, draw(TIMES))
            else:
                args.append(draw(TIMES))
            calls.append((name, *args))
    return calls


#: Whole lifecycles (so filed timelines are common) mixed with loose calls.
SEQUENCES = st.lists(
    st.one_of(lifecycle(), st.lists(CALLS, max_size=3)),
    max_size=12).map(lambda blocks: [c for block in blocks for c in block])


def _apply(tracer, call) -> Optional[str]:
    """Make one call; returns the error it raised, if any."""
    name, *args = call
    if name == "read":
        tracer.timelines()
        return None
    if name == "toggle":
        tracer.enabled = not tracer.enabled
        return None
    kwargs = args.pop() if name in ("container_event", "annotation") else {}
    try:
        getattr(tracer, name)(*args, **kwargs)
    except SimulationError as error:
        return str(error)
    return None


def _observed(tracer) -> Dict[str, object]:
    return {
        "records": json.dumps(tracer_records(tracer, {"scheduler": "x"}),
                              sort_keys=True),
        "timelines": tracer.timelines(),
        "validate": tracer.validate_all(),
        "validate_loose": tracer.validate_all(TIME_TOLERANCE_MS * 1e6),
        "len": len(tracer),
        "events": list(tracer.container_events),
        "annotations": list(tracer.annotations),
    }


@settings(max_examples=300, deadline=None)
@given(SEQUENCES)
def test_stamp_tracer_matches_eager_tracer(calls):
    eager, lazy = EagerTracer(enabled=True), InvocationTracer(enabled=True)
    for call in calls:
        assert _apply(eager, call) == _apply(lazy, call)
    assert _observed(lazy) == _observed(eager)


def test_timelines_are_built_once_and_cached():
    tracer = InvocationTracer(enabled=True)
    for index in range(3):
        invocation_id = f"inv-{index}"
        tracer.invocation_arrived(invocation_id, "f", 0.0)
        tracer.invocation_dispatched(invocation_id, 5.0, 1.0, "c-0")
        tracer.execution_started(invocation_id, 6.0, "c-0")
        tracer.execution_completed(invocation_id, 9.0)
        tracer.invocation_responded(invocation_id, 9.0)
    first = tracer.timelines()
    assert all(a is b for a, b in zip(first, tracer.timelines()))
