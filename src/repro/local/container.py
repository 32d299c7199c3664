"""Local (threading) containers: thread-pool execution with a multiplexer.

:class:`LocalContainer` is the real-runtime analogue of
:class:`repro.model.container.SimContainer`: invocations of one function
execute as parallel threads inside it (the paper's inline parallelism),
optionally gated to a fixed concurrency, and share the container's
:class:`~repro.common.multiplexer.ResourceMultiplexer`.

A batch runs on *lanes*: at most ``concurrency`` threads, each taking the
batch's next member until none is left, so a serial container runs its
batch in order on the calling thread and starts no thread at all.  Every
other thread that runs a handler is a parked thread of a
:class:`WorkerPool` — the one parked-thread implementation of
``repro.local``.  A container owns a pool for its extra lanes;
:class:`~repro.local.runtime.LocalPlatform` owns another whose *runners*
pull ready groups and run one lane of each group themselves.  A pool
starts a thread only when none is parked, so once the pools have seen
their peak concurrency, serving constructs no thread: not per request,
not per group, and not per timeout — the per-handler budget is enforced
by one :class:`DeadlineWatcher` thread, not by a second thread per call.
(At gateway rates per-request ``Thread()`` construction was the
throughput ceiling, twice.)
"""

from __future__ import annotations

import collections
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional

from repro.common.errors import ContainerStateError, InvocationTimeout
from repro.common.multiplexer import ResourceMultiplexer

#: A function handler: ``handler(payload, context) -> result``.
Handler = Callable[[Any, "InvocationContext"], Any]


@dataclass(slots=True)
class LocalInvocation:
    """One request flowing through the local runtime."""

    invocation_id: str
    function_name: str
    payload: Any
    submitted_at: float = field(default_factory=time.monotonic)
    dispatched_at: Optional[float] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Outcome of the latest attempt, recorded before the invocation
    #: resolves so the platform's retry layer can intercept failures.
    result: Any = None
    error: Optional[BaseException] = None
    attempts: int = 1
    #: ``submitted_at`` of attempt 1 (``submitted_at`` is the current
    #: attempt's restart time once retries happen).
    first_submitted_at: Optional[float] = None
    #: Sequence number of the group this attempt ran in (stamped by the
    #: platform, fresh per started group).  A retried attempt runs in a
    #: strictly later group — the re-batching tests assert monotonicity
    #: across :attr:`attempt_history`.
    window_seq: Optional[int] = None
    #: Container the latest attempt ran in (stamped by the platform; None
    #: for an attempt that failed before it got one).
    container_id: Optional[str] = None
    #: Index of this invocation in the group it was submitted with (a
    #: retry keeps it), so a caller can match outcomes to its requests.
    position: int = 0
    #: Called with a list of resolved invocations, this one among them,
    #: then dropped — a completed invocation must not pin its caller's
    #: request state.
    on_resolved: Optional[Callable[[List["LocalInvocation"]], None]] = None
    resolved: bool = field(default=False, init=False)
    #: Records of the attempts :meth:`reset_for_retry` archived; None
    #: until there is a retry — most invocations never allocate one.
    _failed_attempts: Optional[List[dict]] = field(
        default=None, init=False, repr=False)

    @property
    def attempt_history(self) -> List[dict]:
        """One record per finished attempt, oldest first: attempt number,
        window sequence, container id and error type (``None`` for a
        success).  Built on request from the archived failures plus the
        latest attempt's own fields, so the common single-attempt
        invocation carries no list and no dict.
        """
        history = list(self._failed_attempts or ())
        if self.completed_at is not None:
            history.append({
                "attempt": self.attempts,
                "window_seq": self.window_seq,
                "container_id": self.container_id,
                "error": (type(self.error).__name__
                          if self.error is not None else None),
            })
        return history

    @property
    def latency_seconds(self) -> float:
        if self.completed_at is None:
            raise ContainerStateError(
                f"{self.invocation_id} has not completed")
        return self.completed_at - self.submitted_at

    @property
    def execution_seconds(self) -> float:
        if self.completed_at is None or self.started_at is None:
            raise ContainerStateError(
                f"{self.invocation_id} has not completed")
        return self.completed_at - self.started_at

    def record(self, result: Any, error: Optional[BaseException]) -> None:
        """Record this attempt's outcome; ``completed_at`` marks it settled."""
        self.result = result
        self.error = error
        self.completed_at = time.monotonic()

    def resolve(self) -> None:
        """Publish the recorded outcome to the caller (idempotent)."""
        callback = self.mark_resolved()
        if callback is not None:
            callback([self])

    def mark_resolved(self) -> Optional[Callable[..., None]]:
        """Mark the outcome published and hand back the ``on_resolved`` hook
        for the caller to run: dropped from the invocation, and ``None`` the
        second time."""
        if self.resolved:
            return None
        self.resolved = True
        callback, self.on_resolved = self.on_resolved, None
        return callback

    def reset_for_retry(self) -> None:
        """Re-arm for another attempt (caller restarts it afterwards)."""
        if self.error is None:
            raise ContainerStateError(
                f"{self.invocation_id} retried without a failure")
        if self.first_submitted_at is None:
            self.first_submitted_at = self.submitted_at
        self._failed_attempts = self.attempt_history
        # ``attempts`` moves first: a handler abandoned by a timeout
        # compares it before ``completed_at`` when it finally returns.
        self.attempts += 1
        self.submitted_at = time.monotonic()
        self.dispatched_at = None
        self.started_at = None
        self.completed_at = None
        self.container_id = None
        self.result = None
        self.error = None


@dataclass(frozen=True)
class InvocationContext:
    """What a handler sees: its container identity and the shared resources.

    Handlers create expensive clients through
    ``context.create_resource(factory, *args)`` — the interception point of
    §III-D.  Without a multiplexer (Vanilla mode) the factory is simply
    called.
    """

    container_id: str
    function_name: str
    multiplexer: Optional[ResourceMultiplexer]

    def create_resource(self, factory: Callable[..., Any], *args: Any,
                        **kwargs: Any) -> Any:
        if self.multiplexer is None:
            return factory(*args, **kwargs)
        return self.multiplexer.get_or_create(factory, *args, **kwargs)


def _report_thread_error() -> None:
    """Report the exception being handled as a dying thread's would be."""
    threading.excepthook(threading.ExceptHookArgs(
        (*sys.exc_info(), threading.current_thread())))


class WorkerPool:
    """Grow-on-demand parked threads pulling work from one ready queue.

    ``submit(*args)`` queues one ``run(*args)`` call.  It claims a parked
    thread when there is one and starts a thread only when there is none,
    so queued work never waits behind a busy thread: concurrency is
    unbounded, and steady state constructs no thread.  A thread stuck in
    ``run`` (a handler abandoned by its timeout) is simply not parked
    until ``run`` returns; it is reused afterwards, not leaked.
    """

    def __init__(self, name: str, run: Callable[..., None]) -> None:
        self._name = name
        self._run = run
        self._ready: "queue.SimpleQueue[Optional[tuple]]" = (
            queue.SimpleQueue())
        self._lock = threading.Lock()
        self._parked = 0
        self._threads: List[threading.Thread] = []
        self._closed = False

    @property
    def started(self) -> int:
        """Threads this pool has ever started."""
        return len(self._threads)

    @property
    def idle(self) -> int:
        """Threads parked on the ready queue with no work claimed."""
        return self._parked

    def submit(self, *args: Any) -> None:
        thread = None
        with self._lock:
            if self._closed:
                raise ContainerStateError(f"{self._name} pool is closed")
            if self._parked:
                self._parked -= 1
            else:
                thread = threading.Thread(
                    target=self._loop, daemon=True,
                    name=f"{self._name}-{len(self._threads)}")
                self._threads.append(thread)
        if thread is not None:
            try:
                thread.start()
            except BaseException:  # nothing queued, nothing claimed
                with self._lock:
                    self._threads.remove(thread)
                raise
        self._ready.put(args)

    def close(self) -> List[threading.Thread]:
        """Tell every thread to exit once the queue is empty; returns them.

        A parked thread exits at once; one still inside ``run`` exits when
        ``run`` returns.
        """
        with self._lock:
            if self._closed:
                return []
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._ready.put(None)
        return threads

    def _loop(self) -> None:
        while True:
            args = self._ready.get()
            if args is None:
                return
            try:
                self._run(*args)
            except Exception:
                # A bug in one call must not cost the pool a thread.
                _report_thread_error()
            with self._lock:
                self._parked += 1


class DeadlineWatcher:
    """One thread that expires handler calls which outlive a constant budget.

    Every watched call has the same budget, so deadlines arrive (near
    enough) in order and a FIFO replaces a heap: ``watch`` is one
    ``deque.append``, with no lock and no wake-up.  Calls that settle in
    time leave the FIFO's head as they settle (:meth:`forget_settled`), so
    it holds about the calls in flight rather than every call of the last
    budget.  The thread sweeps the due head at most ``SWEEPS_PER_BUDGET``
    times per budget (an overrun is noticed within budget/20 of its
    deadline, whatever the request rate), and sleeps a whole budget when
    nothing is pending: nothing appended meanwhile can be due sooner.
    ``expire(invocation, attempt, context)`` runs for each call still
    unsettled at its deadline.
    """

    SWEEPS_PER_BUDGET = 20

    def __init__(self, budget_seconds: float, name: str) -> None:
        self.budget_seconds = budget_seconds
        #: ``(deadline, invocation, attempt, expire, context)`` in watch
        #: order.  ``watch`` appends without the lock; it serialises the
        #: threads that pop.
        self._pending: Deque[tuple] = collections.deque()
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self.thread = threading.Thread(target=self._loop, name=name,
                                       daemon=True)
        self.thread.start()

    def watch(self, started_at: float, invocation: LocalInvocation,
              attempt: int, expire: Callable[..., None],
              context: Any) -> None:
        self._pending.append((started_at + self.budget_seconds, invocation,
                              attempt, expire, context))

    def forget_settled(self) -> None:
        """Drop the settled calls at the head of the FIFO."""
        pending = self._pending
        with self._lock:
            while pending:
                _, invocation, attempt, _, _ = pending[0]
                if invocation.completed_at is None \
                        and invocation.attempts == attempt:
                    return
                pending.popleft()

    def stop(self) -> None:
        self._stopped.set()

    def _loop(self) -> None:
        pending = self._pending
        shortest_nap = self.budget_seconds / self.SWEEPS_PER_BUDGET
        nap = self.budget_seconds
        while not self._stopped.wait(nap):
            nap = self.budget_seconds
            due = []
            now = time.monotonic()
            with self._lock:
                while pending:
                    remaining = pending[0][0] - now
                    if remaining > 0:
                        nap = max(remaining, shortest_nap)
                        break
                    due.append(pending.popleft())
            for _, invocation, attempt, expire, context in due:
                try:
                    expire(invocation, attempt, context)
                except Exception:  # one bad entry must not end all timeouts
                    _report_thread_error()


class _Batch:
    """One ``execute_batch`` call: the members no lane has taken yet, and
    the countdown of its unsettled members."""

    __slots__ = ("queued", "remaining", "on_done")

    def __init__(self, invocations: List[LocalInvocation],
                 on_done: Callable[[], None]) -> None:
        self.queued: Deque[LocalInvocation] = collections.deque(invocations)
        self.remaining = len(invocations)
        self.on_done: Optional[Callable[[], None]] = on_done


class LocalContainer:
    """A warm 'container' (thread pool) for one function."""

    def __init__(self, container_id: str, function_name: str,
                 handler: Handler,
                 concurrency: Optional[int] = None,
                 use_multiplexer: bool = True,
                 cold_start_seconds: float = 0.0,
                 timeout_seconds: Optional[float] = None,
                 defer_resolution: bool = False,
                 watcher: Optional[DeadlineWatcher] = None) -> None:
        if concurrency is not None and concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1 or None, got {concurrency}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0 or None, got {timeout_seconds}")
        self.container_id = container_id
        self.function_name = function_name
        self.handler = handler
        self.multiplexer = ResourceMultiplexer() if use_multiplexer else None
        #: Wall-clock budget per handler call.  A handler that overruns is
        #: abandoned on its (daemon) pooled thread and the invocation fails
        #: with :class:`InvocationTimeout` — Python threads cannot be
        #: killed, so the thread is unavailable until the call returns.
        self.timeout_seconds = timeout_seconds
        #: When True the container only *records* each outcome on the
        #: invocation; the platform's retry layer decides when the caller
        #: hears of it.  Direct/standalone use keeps the default
        #: (invocations resolve as each one finishes).
        self.defer_resolution = defer_resolution
        #: The platform shares one watcher across its containers (they all
        #: have the same budget); a standalone container starts its own.
        self._owns_watcher = timeout_seconds is not None and watcher is None
        self._watcher = (DeadlineWatcher(timeout_seconds,
                                         f"{container_id}:deadlines")
                         if self._owns_watcher else watcher)
        self._context = InvocationContext(
            container_id=container_id, function_name=function_name,
            multiplexer=self.multiplexer)
        #: Most members of one batch running at once (None: all of them).
        self.concurrency = concurrency
        self._active = 0
        self._lock = threading.Lock()
        self._workers = WorkerPool(f"{container_id}:worker", self._run_lane)
        self.invocations_served = 0
        self.invocations_timed_out = 0
        self.stopped = False
        if cold_start_seconds > 0:
            # The provisioning cost (image pull, runtime boot) of a real
            # cold start, scaled down for tests/examples.
            time.sleep(cold_start_seconds)

    @property
    def active_invocations(self) -> int:
        """Members accepted by ``execute_batch`` and not yet settled."""
        with self._lock:
            return self._active

    @property
    def is_idle(self) -> bool:
        return self.active_invocations == 0 and not self.stopped

    def stop(self) -> None:
        if self.active_invocations:
            raise ContainerStateError(
                f"{self.container_id} is busy ({self.active_invocations})")
        with self._lock:
            self.stopped = True
        self._workers.close()
        if self._owns_watcher:
            self._watcher.stop()

    # -- execution ---------------------------------------------------------------

    def execute_batch(self, invocations: List[LocalInvocation],
                      on_done: Optional[Callable[[], None]] = None) -> None:
        """Run *invocations* inside this container.

        Mirrors §III-C step 3: one request expands the whole batch as
        threads — as many *lanes* as the container's concurrency allows,
        each running the batch's next member until none is left, so a
        member waits for a lane, never for a lock.  Without *on_done*
        every lane is a pooled worker and the call blocks until all
        members settled.  With *on_done* the caller says it is itself a
        pooled thread that a timeout may abandon: it runs one lane (all of
        a serial container's batch, and the whole of a single-member
        batch, with no hand-off), the call returns when that lane does,
        and ``on_done()`` fires exactly once, on whichever thread settles
        the batch's last unsettled member.
        """
        if self.stopped:
            raise ContainerStateError(f"{self.container_id} is stopped")
        if not invocations:
            raise ValueError("empty batch")
        done = None
        if on_done is None:
            done = threading.Event()
            on_done = done.set
        batch = _Batch(invocations, on_done)
        with self._lock:
            self._active += len(invocations)
        dispatched_at = time.monotonic()
        for invocation in invocations:
            invocation.dispatched_at = dispatched_at
        lanes = len(invocations)
        if self.concurrency is not None:
            lanes = min(lanes, self.concurrency)
        if done is None:
            if lanes > 1:
                self._add_lanes(batch, lanes - 1, running=True)
            self._run_lane(batch)
        else:
            self._add_lanes(batch, lanes, running=False)
            done.wait()

    def _add_lanes(self, batch: _Batch, count: int, running: bool) -> None:
        """Start *count* lanes on pooled workers; *running* says whether
        another lane is already serving *batch*.

        A lane that cannot start ("can't start new thread") fails the
        member it would have taken, and when no lane serves the batch at
        all, every member still queued fails with it.
        """
        error = None
        for _ in range(count):
            try:
                self._workers.submit(batch)
                running = True
            except Exception as failure:
                error = failure
                self._fail_next(batch, error)
        if error is not None and not running:
            while self._fail_next(batch, error):
                pass

    def _fail_next(self, batch: _Batch, error: BaseException) -> bool:
        """Settle the batch's next queued member with *error*, if any."""
        try:
            invocation = batch.queued.popleft()
        except IndexError:
            return False
        self._settle(invocation, invocation.attempts, batch, None, error)
        return True

    def _run_lane(self, batch: _Batch) -> None:
        """Run the batch's queued members one after another; stop when
        none is left, or when the deadline abandoned the member this lane
        ran (a fresh lane has taken over the rest)."""
        queued = batch.queued
        while True:
            try:
                invocation = queued.popleft()
            except IndexError:
                return
            if not self._run_one(invocation, batch):
                return

    def _run_one(self, invocation: LocalInvocation, batch: _Batch) -> bool:
        """Run one member; False when its deadline got there first."""
        attempt = invocation.attempts
        invocation.started_at = started = time.monotonic()
        if self._watcher is not None:
            self._watcher.watch(started, invocation, attempt, self._expire,
                                batch)
        try:
            result, error = self.handler(invocation.payload,
                                         self._context), None
        except BaseException as failure:  # handler failure -> recorded
            result, error = None, failure
        return self._settle(invocation, attempt, batch, result, error)

    def _expire(self, invocation: LocalInvocation, attempt: int,
                batch: _Batch) -> None:
        """Deadline of one handler call (runs on the watcher thread)."""
        if invocation.completed_at is not None \
                or invocation.attempts != attempt:
            return  # it finished within its budget
        if self._settle(invocation, attempt, batch, None, InvocationTimeout(
                f"{invocation.invocation_id} exceeded "
                f"{self.timeout_seconds}s on {self.container_id} "
                f"(attempt {attempt})"), timed_out=True) and batch.queued:
            # The abandoned lane's thread is stuck in the handler: the
            # members queued behind it continue on a fresh lane.
            self._add_lanes(batch, 1, running=False)

    def _settle(self, invocation: LocalInvocation, attempt: int,
                batch: _Batch, result: Any,
                error: Optional[BaseException],
                timed_out: bool = False) -> bool:
        """Record one member's outcome — once; True if this call did.

        A handler's own thread and the deadline watcher race to settle a
        member.  The first wins; the loser (an overrunning handler that
        finally returned, or a deadline that found the call finished) is
        dropped, also when the invocation has since moved on to a later
        attempt.  Whoever settles a batch's last member runs ``on_done``.
        """
        with self._lock:
            if invocation.attempts != attempt \
                    or invocation.completed_at is not None:
                return False
            invocation.record(result, error)
            self._active -= 1
            self.invocations_served += 1
            self.invocations_timed_out += timed_out
            batch.remaining -= 1
            last = batch.remaining == 0
        if self._watcher is not None:
            self._watcher.forget_settled()
        if not self.defer_resolution:
            invocation.resolve()
        if last:
            # A deadline entry queued behind an unsettled head outlives the
            # batch: do not let it pin the group through its callback.
            on_done, batch.on_done = batch.on_done, None
            on_done()
        return True
