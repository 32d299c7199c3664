"""Function and invocation model, with the paper's latency breakdown.

The paper decomposes *invocation latency* into four parts (§IV, "Evaluation
Metrics"): scheduling latency, cold-start latency, queuing latency and
execution latency.  :class:`Invocation` carries exactly those marks; the
platform and containers stamp them as the invocation flows through.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.common.errors import SchedulingError
from repro.model.workprofile import WorkProfile


class FunctionKind(enum.Enum):
    """Workload class of a function (the paper evaluates both)."""

    CPU = "cpu"
    IO = "io"


@dataclass(frozen=True)
class FunctionSpec:
    """A registered serverless function.

    ``profile_factory`` builds the work profile of one invocation; it takes
    the invocation's payload (an opaque object from the workload generator,
    e.g. the fib ``N``) and returns a :class:`WorkProfile`.
    """

    function_id: str
    kind: FunctionKind
    profile_factory: Callable[[object], WorkProfile]

    def build_profile(self, payload: object) -> WorkProfile:
        """Materialise the work profile for one invocation."""
        return self.profile_factory(payload)


class InvocationState(enum.Enum):
    """Lifecycle of one invocation."""

    RECEIVED = "received"
    DISPATCHED = "dispatched"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class LatencyBreakdown:
    """The four latency components of §IV, all in milliseconds.

    ``scheduling_ms`` excludes the cold start, matching the paper: "we
    subtract the cold-start latency from the scheduling latency in our
    evaluation".
    """

    scheduling_ms: float = 0.0
    cold_start_ms: float = 0.0
    queuing_ms: float = 0.0
    execution_ms: float = 0.0


@dataclass(frozen=True, slots=True)
class AttemptRecord:
    """Archived stamps of one failed attempt (preserved across retries)."""

    attempt: int
    arrival_ms: float
    latency: LatencyBreakdown
    dispatched_ms: Optional[float]
    completed_ms: Optional[float]
    container_id: Optional[str]
    error: Optional[str]


@dataclass(slots=True)
class Invocation:
    """One function invocation flowing through the platform.

    An invocation holds only its stamps: :attr:`latency` is derived from
    them on read, so a finished run retains a few hundred bytes each.
    """

    invocation_id: str
    function: FunctionSpec
    payload: object
    arrival_ms: float
    state: InvocationState = InvocationState.RECEIVED
    container_id: Optional[str] = None
    #: Simulated timestamps stamped as the invocation progresses.
    dispatched_ms: Optional[float] = None
    #: The cold start this attempt waited for before dispatch (0.0 warm).
    cold_start_ms: float = 0.0
    execution_start_ms: Optional[float] = None
    completed_ms: Optional[float] = None
    #: When the response was returned to the caller.  Under the paper's
    #: batch semantics (§III-C: "the HTTP request is returned to FaaSBatch
    #: only after all invocations of the function group have completed")
    #: this is the *group's* completion time; with the early-return
    #: extension (the paper's future work) it equals ``completed_ms``.
    responded_ms: Optional[float] = None
    error: Optional[BaseException] = None
    #: Resilience bookkeeping: current attempt number (1 = first try),
    #: the original arrival (attempt 1's, never overwritten by retries)
    #: and the archived stamps of every failed earlier attempt (the shared
    #: empty tuple until a retry, so a first try allocates nothing).
    attempts: int = 1
    first_arrival_ms: Optional[float] = None
    attempt_history: Tuple[AttemptRecord, ...] = ()

    @property
    def latency(self) -> LatencyBreakdown:
        """This attempt's §IV breakdown, computed from its stamps (a
        component whose stamps are not set yet reads 0.0)."""
        dispatched, started = self.dispatched_ms, self.execution_start_ms
        if dispatched is None:
            return LatencyBreakdown()
        return LatencyBreakdown(
            (dispatched - self.arrival_ms) - self.cold_start_ms,
            self.cold_start_ms,
            0.0 if started is None else started - dispatched,
            self.completed_ms - started  # type: ignore[operator]
            if self.state is InvocationState.COMPLETED else 0.0)

    # -- stamping helpers (called by the platform/container) ---------------------

    def mark_dispatched(self, now_ms: float, cold_start_ms: float) -> None:
        """Invocation handed to its container; split scheduling/cold-start."""
        if self.dispatched_ms is not None:
            raise SchedulingError(
                f"{self.invocation_id} dispatched twice")
        raw_scheduling = now_ms - self.arrival_ms
        if raw_scheduling + 1e-9 < cold_start_ms:
            raise SchedulingError(
                f"{self.invocation_id}: cold start ({cold_start_ms} ms) "
                f"exceeds elapsed scheduling time ({raw_scheduling} ms)")
        self.dispatched_ms = now_ms
        self.cold_start_ms = cold_start_ms
        self.state = InvocationState.DISPATCHED

    def mark_execution_start(self, now_ms: float) -> None:
        """Invocation starts executing; the gap since dispatch was queuing."""
        if self.dispatched_ms is None:
            raise SchedulingError(
                f"{self.invocation_id} started before dispatch")
        self.execution_start_ms = now_ms
        self.state = InvocationState.RUNNING

    def mark_completed(self, now_ms: float) -> None:
        if self.execution_start_ms is None:
            raise SchedulingError(
                f"{self.invocation_id} completed before starting")
        self.completed_ms = now_ms
        self.state = InvocationState.COMPLETED

    def mark_failed(self, now_ms: float, error: BaseException) -> None:
        self.completed_ms = now_ms
        self.error = error
        self.state = InvocationState.FAILED

    def mark_responded(self, now_ms: float) -> None:
        """The caller received its response (group return or early return)."""
        if self.completed_ms is None:
            raise SchedulingError(
                f"{self.invocation_id} responded before completing")
        if self.responded_ms is not None:
            raise SchedulingError(
                f"{self.invocation_id} responded twice")
        if now_ms + 1e-9 < self.completed_ms:
            raise SchedulingError(
                f"{self.invocation_id} responded before its completion")
        self.responded_ms = now_ms

    @property
    def response_latency_ms(self) -> float:
        """Arrival-to-response latency (what the *caller* experiences)."""
        if self.responded_ms is None:
            raise SchedulingError(f"{self.invocation_id} has no response")
        return self.responded_ms - self.arrival_ms

    @property
    def end_to_end_ms(self) -> float:
        """Arrival-to-completion latency (the paper's invocation latency)."""
        if self.completed_ms is None:
            raise SchedulingError(f"{self.invocation_id} not completed")
        return self.completed_ms - self.arrival_ms

    # -- retry support (the resilience layer, repro.faults) ---------------------

    @property
    def trace_id(self) -> str:
        """Unique per-attempt id for span traces (``inv-3`` / ``inv-3#a2``).

        Attempt 1 keeps the bare invocation id, so runs without retries
        export byte-identical traces to pre-resilience builds.
        """
        if self.attempts == 1:
            return self.invocation_id
        return f"{self.invocation_id}#a{self.attempts}"

    @property
    def initial_arrival_ms(self) -> float:
        """Arrival of the *first* attempt (``arrival_ms`` is the current's)."""
        return (self.first_arrival_ms
                if self.first_arrival_ms is not None else self.arrival_ms)

    @property
    def total_response_latency_ms(self) -> float:
        """First-arrival-to-response latency, retries and backoffs included."""
        if self.responded_ms is None:
            raise SchedulingError(f"{self.invocation_id} has no response")
        return self.responded_ms - self.initial_arrival_ms

    @property
    def first_attempt_end_to_end_ms(self) -> Optional[float]:
        """Arrival-to-completion of attempt 1, or None if it never completed
        (e.g. its cold start failed before dispatch)."""
        if not self.attempt_history:
            return (self.end_to_end_ms
                    if self.completed_ms is not None else None)
        first = self.attempt_history[0]
        if first.completed_ms is None:
            return None
        return first.completed_ms - first.arrival_ms

    def reset_for_retry(self, now_ms: float) -> None:
        """Archive the failed attempt and re-arm for re-enqueue at *now_ms*.

        The attempt's breakdown and stamps move into ``attempt_history`` (so
        first-attempt latencies stay reportable — they are never silently
        overwritten), then every per-attempt field resets as if the
        invocation had just arrived.
        """
        if self.error is None:
            raise SchedulingError(
                f"{self.invocation_id} retried without a failure")
        if self.first_arrival_ms is None:
            self.first_arrival_ms = self.arrival_ms
        self.attempt_history += (AttemptRecord(
            attempt=self.attempts,
            arrival_ms=self.arrival_ms,
            latency=self.latency,
            dispatched_ms=self.dispatched_ms,
            completed_ms=self.completed_ms,
            container_id=self.container_id,
            error=type(self.error).__name__),)
        self.attempts += 1
        self.arrival_ms = now_ms
        self.state = InvocationState.RECEIVED
        self.container_id = None
        self.dispatched_ms = None
        self.cold_start_ms = 0.0
        self.execution_start_ms = None
        self.completed_ms = None
        self.responded_ms = None
        self.error = None
