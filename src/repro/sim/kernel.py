"""Discrete-event simulation kernel.

A small, dependency-free, SimPy-style kernel: simulated *processes* are
Python generators that ``yield`` :class:`Event` objects and are resumed when
those events trigger.  The kernel is deliberately minimal but complete enough
to model a serverless platform: timeouts, one-shot events, process joining,
interrupts, and composite all-of/any-of events.

Determinism
-----------
Events scheduled for the same simulated time fire in FIFO order of
scheduling (urgent events before normal ones, creation order within each
class), so a run is a pure function of its inputs.  All times are in
milliseconds (:mod:`repro.common.units`).

Hot-path design
---------------
A 50k-invocation bench run pushes millions of events through this module,
so the event queue is split by *when the event fires*, keeping the exact
event ordering of the historical single-heap implementation:

* **Current-instant events** — the overwhelming majority (process starts,
  interrupts, ``succeed``/``fail`` triggers, zero-delay timeouts) — never
  touch an ordered structure at all.  They go to two plain deques,
  ``_urgent`` and ``_immediate``: appends and pops are O(1) with no key
  composition and no sequence-number allocation, because deque order *is*
  creation order.  This is the batch-arrival fast path: a dispatch window
  of same-instant process starts costs one ``extend``
  (:meth:`Environment.process_batch`).
* **Future events** — only normal-priority timeouts can carry a timestamp
  beyond ``now`` (urgent events are always scheduled at the current
  instant) — live in one binary heap of flat ``(when, seq, event)``
  triples (``_HeapQueue`` below).  *seq* is the environment's monotone
  sequence number, so events scheduled for the same instant pop in
  creation order.  A calendar queue was measured against the heap and did
  not win end to end (``docs/performance.md``), so the heap is the only
  future-event structure.
* Dispatch order at one instant is: the urgent deque, then future-queue
  entries that have reached their time (they were created at earlier
  instants, hence earlier in FIFO terms), then the immediate deque —
  exactly the ``(when, priority, seq)`` total order of the old heap.
* Timer cancellation stays lazy: a cancelled :class:`Timeout` becomes a
  tombstone wherever it sits and is dropped unprocessed when surfaced;
  once tombstones outnumber live entries past ``COMPACT_THRESHOLD`` they
  are swept, which bounds memory.
* Every event class declares ``__slots__``; callback lists are allocated
  lazily (a shared empty sentinel, then a bare callable for a single
  waiter, a list only for several); :meth:`Environment.run` and
  :meth:`Environment.run_process` inline the pop/advance/dispatch sequence
  with bound locals (``step()`` remains the single-event reference
  implementation).
* Time hooks (:meth:`Environment.add_time_hook`) ride the same fused path:
  when the popped entry moves the clock and a hook is installed, the loop
  calls ``_advance`` instead of assigning ``_now``.  That is sound only
  because hooks are pure observers that never schedule events — the hook
  contract.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5.0
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import (
    Any, Callable, Generator, Iterable, List, Optional, Sequence, Tuple,
)

from repro.common.errors import (
    EventAlreadyTriggered,
    ProcessInterrupted,
    SimulationError,
)

#: Type of the generator a :class:`Process` drives.
ProcessGenerator = Generator["Event", Any, Any]

#: Shared sentinel for "pending, no waiters attached yet" (``None`` still
#: means processed).  Being falsy and immutable, one instance serves every
#: event that never acquires a waiter.
_NO_WAITERS: Tuple = ()

_INF = float("inf")


class Event:
    """A one-shot occurrence that processes can wait on.

    Life-cycle: *pending* → *triggered* (value or exception attached and the
    event is queued) → *processed* (callbacks ran).  Triggering twice raises
    :class:`EventAlreadyTriggered`.
    """

    __slots__ = ("env", "_callbacks", "_value", "_ok", "_defused")

    #: Lazily-cancelled events become tombstones and are discarded
    #: unprocessed (no callbacks, no clock advancement).  Only Timeout
    #: supports it.
    cancelled = False

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._callbacks: Any = _NO_WAITERS
        self._value: Any = None
        self._ok: Optional[bool] = None  # None = pending
        self._defused = False

    # -- callbacks ------------------------------------------------------------

    @property
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """Waiter callbacks, or ``None`` once the event has been processed.

        Internally waiters are stored compactly (no list until one exists);
        reading this property materializes — and keeps — a real list so the
        historical contract (``callbacks is None`` means processed, appends
        attach waiters) is fully preserved.
        """
        cbs = self._callbacks
        if cbs is None or type(cbs) is list:
            return cbs
        fresh: List[Callable[["Event"], None]] = \
            [] if cbs is _NO_WAITERS else [cbs]
        self._callbacks = fresh
        return fresh

    @callbacks.setter
    def callbacks(self, value: Optional[List[Callable[["Event"], None]]]) -> None:
        self._callbacks = value

    def _attach(self, callback: Callable[["Event"], None]) -> None:
        """Attach a waiter without materializing a list for the first one."""
        cbs = self._callbacks
        if type(cbs) is list:
            cbs.append(callback)
        elif cbs is _NO_WAITERS:
            self._callbacks = callback
        else:
            self._callbacks = [cbs, callback]

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or exception has been attached."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception attached to the event."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._immediate.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._immediate.append(self)
        return self

    def defuse(self) -> "Event":
        """Allow this event's failure to pass with no waiters attached.

        By default a failure nobody waited on is re-raised by the kernel (a
        lost error is a simulation bug).  Broadcast-style events — e.g. an
        in-flight build aborted by a container crash, whose waiters may all
        have been interrupted away — opt out with ``fail(err).defuse()``:
        any remaining waiters still receive the exception, but zero waiters
        is no longer an error.
        """
        self._defused = True
        return self

    # -- composition -------------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "pending"
        if self._ok is not None:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers *delay* milliseconds after creation."""

    __slots__ = ("delay", "cancelled")

    def __init__(self, env: "Environment", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self._callbacks: Any = _NO_WAITERS
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = delay
        # The slot shadows the Event class attribute for Timeout instances,
        # so initialize it explicitly.
        self.cancelled = False
        when = env._now + delay
        if when > env._now:
            env._future.push(when, env._sequence, self)
            env._sequence += 1
        else:
            env._immediate.append(self)

    def cancel(self) -> None:
        """Abandon this timeout: the kernel discards it without processing.

        Cancellation is *lazy* — the queue entry stays as a tombstone until
        the kernel would surface it, at which point it is dropped without
        running callbacks or advancing the clock (and without counting as a
        processed event).  Services that re-arm wake-up timers on every
        state change use this so abandoned timers stop costing queue space
        and no-op wake-ups.  Cancelling an already-processed timeout is a
        no-op.
        """
        if self._callbacks is None or self.cancelled:
            return
        self.cancelled = True
        self.env._note_cancelled()

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover - guard
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover - guard
        raise SimulationError("Timeout events trigger themselves")


class Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self._callbacks = process._resume
        self._value = None
        self._ok = True
        self._defused = False
        env._urgent.append(self)


class Interruption(Event):
    """Internal event that throws ProcessInterrupted into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        if process._ok is not None:
            raise SimulationError("cannot interrupt a terminated process")
        env = process.env
        self.env = env
        self.process = process
        self._callbacks = self._interrupt
        self._value = ProcessInterrupted(cause)
        self._ok = False
        self._defused = False
        env._urgent.append(self)

    def _interrupt(self, event: Event) -> None:
        if self.process._ok is not None:
            return  # terminated before the interrupt was delivered
        target = self.process._waiting_on
        if target is not None and not target.processed:
            # Detach so the original event no longer resumes the process.
            callbacks = target.callbacks
            assert callbacks is not None
            if self.process._resume in callbacks:
                callbacks.remove(self.process._resume)
        self.process._waiting_on = None
        self.process._resume(self)


class Process(Event):
    """Drives a generator; itself an event that triggers when it returns.

    The generator's ``return`` value becomes the process's ``value``.  If the
    generator raises, the process fails with that exception (which propagates
    to joiners, or out of :meth:`Environment.run` if nobody joined).
    """

    __slots__ = ("_generator", "name", "_waiting_on")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupted` into the process."""
        Interruption(self, cause)

    # -- generator driving ------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        send = self._generator.send
        throw = self._generator.throw
        event: Optional[Event] = trigger
        while True:
            assert event is not None
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    exc = event._value
                    # Mark delivered so an unhandled failure is reported once.
                    event._defused = True
                    next_event = throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._immediate.append(self)
                return
            except BaseException as exc:  # generator crashed
                self._ok = False
                self._value = exc
                self.env._immediate.append(self)
                return

            if not isinstance(next_event, Event):
                crash = SimulationError(
                    f"process {self.name!r} yielded {next_event!r}, "
                    "which is not an Event")
                self._ok = False
                self._value = crash
                self.env._immediate.append(self)
                return

            cbs = next_event._callbacks
            if cbs is None:
                # Already fired: loop immediately with its value.
                event = next_event
                continue
            if type(cbs) is list:
                cbs.append(self._resume)
            elif cbs is _NO_WAITERS:
                next_event._callbacks = self._resume
            else:
                next_event._callbacks = [cbs, self._resume]
            self._waiting_on = next_event
            return

    def __repr__(self) -> str:
        return f"<Process {self.name} {'alive' if self.is_alive else 'done'}>"


class AllOf(Event):
    """Triggers when every child event has succeeded (fails fast on failure).

    The value is a list of child values in the order the children were given.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children: List[Event] = list(events)
        self._pending = 0
        for child in self._children:
            if child.processed:
                if not child._ok:
                    self._fail_once(child._value)
                continue
            self._pending += 1
            child._attach(self._on_child)
        if self._ok is None and self._pending == 0:
            self.succeed([c._value for c in self._children])

    def _fail_once(self, exc: BaseException) -> None:
        if self._ok is None:
            self.fail(exc)

    def _on_child(self, child: Event) -> None:
        if self._ok is not None:
            return
        if not child._ok:
            child._defused = True
            self._fail_once(child._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Triggers when the first child triggers (success or failure).

    The value is ``(child, child_value)`` of the winner.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        # The children are not kept: the losers still point here through
        # their callbacks, and keeping them would make that a cycle.
        children = list(events)
        done = next((c for c in children if c.processed), None)
        if done is not None:
            self._settle(done)
            return
        for child in children:
            child._attach(self._on_child)

    def _settle(self, child: Event) -> None:
        if child._ok:
            self.succeed((child, child._value))
        else:
            child._defused = True
            self.fail(child._value)

    def _on_child(self, child: Event) -> None:
        if self._ok is not None:
            return
        self._settle(child)


class _HeapQueue:
    """The future events: a binary heap of ``(when, seq, event)`` triples.

    Pops ascend by ``(when, seq)``; *seq* is unique, so tuple comparison
    never reaches the event object.  A cancelled :class:`Timeout` stays as
    a tombstone until it surfaces at the head (dropped and accounted
    against ``env._cancelled``) or :meth:`compact` sweeps it.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, seq: int, event: Event) -> None:
        heapq.heappush(self._heap, (when, seq, event))

    def min_when(self) -> float:
        """Time of the earliest live entry (+inf when empty)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if not event.cancelled:
                return entry[0]
            heapq.heappop(heap)
            event._callbacks = None
            event.env._cancelled -= 1
        return _INF

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        heap = self._heap
        while True:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
            event._callbacks = None
            event.env._cancelled -= 1

    def next_due(self, now: float) -> Any:
        """Pop and return the earliest live event if due (``when <= now``);
        otherwise return its firing time as a float (``inf`` when empty),
        leaving it queued.

        Fuses ``min_when`` + ``pop`` into one call on the dispatch hot
        path; the caller type-switches on the result (``float`` means
        "not yet").
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                event._callbacks = None
                event.env._cancelled -= 1
                continue
            when = entry[0]
            if when <= now:
                heapq.heappop(heap)
                return event
            return when
        return _INF

    def pop_until(self, bound: float) -> Any:
        """Pop and return the earliest live *entry* if ``when <= bound``;
        otherwise return its firing time as a float (``inf`` when empty).

        The kernel loop uses this to fuse "peek, advance the clock, pop"
        into one call: the returned ``(when, seq, event)`` tuple carries
        the timestamp the clock must advance to, so an advance-then-dispatch
        costs a single queue operation instead of two ``next_due`` calls
        and an extra loop lap.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                event._callbacks = None
                event.env._cancelled -= 1
                continue
            if entry[0] <= bound:
                heapq.heappop(heap)
                return entry
            return entry[0]
        return _INF

    def compact(self) -> int:
        """Physically drop every tombstone; returns the number removed."""
        heap = self._heap
        retained = [entry for entry in heap if not entry[2].cancelled]
        removed = len(heap) - len(retained)
        if removed:
            for entry in heap:
                if entry[2].cancelled:
                    entry[2]._callbacks = None
            heap[:] = retained
            heapq.heapify(heap)
        return removed


class Environment:
    """Holds simulated time and the event queues, and executes events."""

    #: Compact the queues once at least this many cancelled entries linger
    #: *and* they outnumber the live ones (amortised O(1) per cancellation).
    COMPACT_THRESHOLD = 64

    __slots__ = ("_now", "_urgent", "_immediate", "_future", "_sequence",
                 "_cancelled", "events_processed", "active_process",
                 "_time_hooks", "__weakref__")

    def __init__(self) -> None:
        self._now = 0.0
        #: Current-instant deques: urgent (process starts, interrupts,
        #: deferred callbacks) fires before immediate (normal triggers).
        self._urgent: deque = deque()
        self._immediate: deque = deque()
        #: Future events: only normal-priority entries with ``when > now``
        #: at creation.
        self._future = _HeapQueue()
        self._sequence = 0
        self._cancelled = 0
        #: Count of events actually processed (cancelled ones excluded);
        #: perf harnesses report throughput as events_processed / wall-clock.
        self.events_processed = 0
        self.active_process: Optional[Process] = None
        #: Observers of monotonic time advancement, ``hook(old_ms, new_ms)``.
        self._time_hooks: List[Callable[[float, float], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- time observation -------------------------------------------------------

    def add_time_hook(self, hook: Callable[[float, float], None]) -> None:
        """Register ``hook(old_ms, new_ms)``, called whenever time advances.

        The hook contract: hooks are pure observers (the time-series
        sampler, trace clocks).  Each advance is reported exactly once, as
        ``(old, new)``, after the clock moves and before any event at the
        new instant fires — in :meth:`step`, :meth:`run` (including the
        final advance to ``until``) and :meth:`run_process` alike.  A hook
        must not schedule, trigger or cancel events: the fused dispatch
        loop has already taken the next event off the queue when it calls
        the hooks, so an event created by a hook would fire out of order.
        """
        self._time_hooks.append(hook)

    def remove_time_hook(self, hook: Callable[[float, float], None]) -> None:
        self._time_hooks.remove(hook)

    def _advance(self, to: float) -> None:
        """Move the clock monotonically to *to*, notifying time hooks."""
        if to <= self._now:
            return
        old = self._now
        self._now = to
        for hook in self._time_hooks:
            hook(old, to)

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """Create a pending one-shot event (trigger with succeed/fail)."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """Create an event that triggers after *delay* ms."""
        return Timeout(self, delay)

    def timeout_at(self, when: float) -> Timeout:
        """Create an event that triggers at absolute time *when* (>= now).

        Unlike ``timeout(when - now)``, the firing time is *when* exactly —
        no float round-trip through a relative delay — which callers that
        accumulate boundary times sequentially (slice coalescing) rely on
        for bit-identical schedules.
        """
        if when < self._now:
            raise ValueError(f"timeout at={when} is in the past "
                             f"(now={self._now})")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout._callbacks = _NO_WAITERS
        timeout._value = None
        timeout._ok = True
        timeout._defused = False
        timeout.delay = when - self._now
        timeout.cancelled = False
        if when > self._now:
            self._future.push(when, self._sequence, timeout)
            self._sequence += 1
        else:
            self._immediate.append(timeout)
        return timeout

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a process driving *generator* at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- batch-arrival fast path -------------------------------------------------

    def process_batch(self, generators: Sequence[ProcessGenerator],
                      names: Optional[Sequence[str]] = None) -> List[Process]:
        """Start several processes at the current time in one bulk append.

        Equivalent to ``[process(g) for g in generators]`` — each process
        gets its own start event, dispatched in order — but the start
        events land on the urgent deque in a single ``extend``.  The
        dispatch pipeline uses this to launch a whole batch-expansion of
        per-invocation tasks at once.
        """
        processes: List[Process] = []
        starts: List[Initialize] = []
        for index, generator in enumerate(generators):
            process = Process.__new__(Process)
            process.env = self
            process._callbacks = _NO_WAITERS
            process._value = None
            process._ok = None
            process._defused = False
            process._generator = generator
            process.name = (names[index] if names is not None
                            else getattr(generator, "__name__", "process"))
            process._waiting_on = None
            start = Initialize.__new__(Initialize)
            start.env = self
            start._callbacks = process._resume
            start._value = None
            start._ok = True
            start._defused = False
            processes.append(process)
            starts.append(start)
        self._urgent.extend(starts)
        return processes

    # -- scheduling -----------------------------------------------------------

    def defer(self, callback: Callable[[], None]) -> None:
        """Run *callback* at the current simulated time, urgently.

        The callback is wrapped in an urgent event at ``now``, so it runs
        before the clock advances and before any normal-priority event at
        this instant.  Services use this to coalesce several same-instant
        updates into one pass (e.g. the CPU engine folding a burst of
        batch-expansion submits into a single reallocation).
        """
        event = Event(self)
        event._ok = True
        event._callbacks = lambda _event: callback()
        self._urgent.append(event)

    def close(self) -> None:
        """Take a finished simulation apart: close every live process and
        drop every pending event with its callbacks.

        What is left waiting at the end of a run — parked loops, keep-alive
        timers, condition events — refers back to this environment through
        cycles that only the cyclic collector would free.  The live
        processes are found in the collector's list of tracked objects, so
        the kernel keeps no registry of them while it runs.  Afterwards the
        environment cannot run again.
        """
        processes = [obj for obj in gc.get_objects()
                     if type(obj) is Process and obj.env is self
                     and obj._ok is None]
        pending: List[Event] = []
        for process in processes:
            waited, process._waiting_on = process._waiting_on, None
            if waited is not None:
                pending.append(waited)
                pending += getattr(waited, "_children", ())
            process._generator.close()
        pending += [entry[2] for entry in self._future._heap]
        pending += self._urgent
        pending += self._immediate
        self._future._heap.clear()
        self._urgent.clear()
        self._immediate.clear()
        self._time_hooks.clear()
        for event in pending:
            event._callbacks = None

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_THRESHOLD
                and self._cancelled * 2 > (len(self._future)
                                           + len(self._immediate))):
            self._cancelled -= self._future.compact()
            if self._cancelled > 0 and self._immediate:
                immediate = self._immediate
                live = [e for e in immediate if not e.cancelled]
                dropped = len(immediate) - len(live)
                if dropped:
                    for event in immediate:
                        if event.cancelled:
                            event._callbacks = None
                    immediate.clear()
                    immediate.extend(live)
                    self._cancelled -= dropped

    def step(self) -> None:
        """Process exactly one live event (advancing time to it).

        This is the reference implementation of event dispatch;
        :meth:`run` / :meth:`run_process` inline the same sequence.
        """
        while True:
            if self._urgent:
                event = self._urgent.popleft()
            else:
                when = self._future.min_when()
                if when <= self._now:
                    event = self._future.pop()
                elif self._immediate:
                    event = self._immediate.popleft()
                elif when == _INF:
                    raise SimulationError("step() on an empty event queue")
                else:
                    self._advance(when)
                    event = self._future.pop()
            if event.cancelled:
                event._callbacks = None
                self._cancelled -= 1
                continue
            break
        callbacks = event._callbacks
        event._callbacks = None  # mark processed
        assert callbacks is not None
        self.events_processed += 1
        if type(callbacks) is list:
            for callback in callbacks:
                callback(event)
            had_waiters = bool(callbacks)
        elif callbacks is _NO_WAITERS:
            had_waiters = False
        else:
            callbacks(event)
            had_waiters = True
        if not event._ok and not event._defused and not had_waiters:
            # A failure nobody waited on must not pass silently.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or simulated time reaches *until*."""
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        urgent = self._urgent
        immediate = self._immediate
        future_next = self._future.next_due
        future_pop = self._future.pop_until
        pop_urgent = urgent.popleft
        pop_immediate = immediate.popleft
        hooks = self._time_hooks
        no_waiters = _NO_WAITERS
        limit = _INF if until is None else until
        now = self._now
        processed = 0
        try:
            while True:
                if urgent:
                    # Urgent events are never cancellable: no tombstone check.
                    event = pop_urgent()
                elif immediate:
                    event = future_next(now)
                    if type(event) is float:  # head beyond now
                        event = pop_immediate()
                        if event.cancelled:
                            event._callbacks = None
                            self._cancelled -= 1
                            continue
                else:
                    # Fused peek/advance/pop: the returned entry carries the
                    # timestamp the clock must advance to.
                    entry = future_pop(limit)
                    if type(entry) is float:  # empty, or head beyond until
                        break
                    when = entry[0]
                    if when > now:
                        if hooks:
                            self._advance(when)
                        else:
                            self._now = when
                        now = when
                    event = entry[2]
                callbacks = event._callbacks
                event._callbacks = None
                processed += 1
                if type(callbacks) is list:
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused and not callbacks:
                        raise event._value
                elif callbacks is no_waiters:
                    if not event._ok and not event._defused:
                        raise event._value
                else:
                    callbacks(event)
        finally:
            self.events_processed += processed
        if until is not None:
            self._advance(until)

    def run_process(self, process: Process,
                    until: Optional[float] = None) -> Any:
        """Run until *process* completes; return its value or raise."""
        urgent = self._urgent
        immediate = self._immediate
        future_next = self._future.next_due
        future_pop = self._future.pop_until
        pop_urgent = urgent.popleft
        pop_immediate = immediate.popleft
        hooks = self._time_hooks
        no_waiters = _NO_WAITERS
        limit = _INF if until is None else until
        draining = False
        now = self._now
        processed = 0
        try:
            while True:
                if not draining and process._ok is not None:
                    # Drain the remaining events at this instant so joiners
                    # observe the completion too, then stop.
                    draining = True
                if urgent:
                    # Urgent events are never cancellable: no tombstone check.
                    event = pop_urgent()
                elif immediate:
                    event = future_next(now)
                    if type(event) is float:  # head beyond now
                        event = pop_immediate()
                        if event.cancelled:
                            event._callbacks = None
                            self._cancelled -= 1
                            continue
                else:
                    # Fused peek/advance/pop: the returned entry carries the
                    # timestamp the clock must advance to.  While draining,
                    # bound at `now` so only events at this instant pop.
                    entry = future_pop(now if draining else limit)
                    if type(entry) is float:
                        if draining:
                            break
                        if entry == _INF:
                            raise SimulationError(
                                f"deadlock: {process!r} cannot complete, "
                                "queue empty")
                        raise SimulationError(
                            f"{process!r} did not finish by t={until}")
                    when = entry[0]
                    if when > now:
                        if hooks:
                            self._advance(when)
                        else:
                            self._now = when
                        now = when
                    event = entry[2]
                callbacks = event._callbacks
                event._callbacks = None
                processed += 1
                if type(callbacks) is list:
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused and not callbacks:
                        raise event._value
                elif callbacks is no_waiters:
                    if not event._ok and not event._defused:
                        raise event._value
                else:
                    callbacks(event)
        finally:
            self.events_processed += processed
        if process._ok:
            return process._value
        raise process._value
