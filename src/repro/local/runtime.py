"""LocalPlatform: a real, in-process FaaSBatch runtime (threads, no sim).

A miniature serverless platform that actually runs Python handlers:

* work enters as ready groups of one function through
  :meth:`LocalPlatform.submit_group` — the caller (the gateway's
  dispatch window, one per-function group at each close) has already
  made the Invoke Mapper's grouping decision, and the platform keeps it,
  retries included;
* each ready group is pulled by a parked **runner** thread, mapped onto a
  single warm-or-new container and expanded as parallel threads
  (Inline-Parallel Producer) — the runner itself runs one lane of the
  group, so a single-request group costs one thread hop, not three;
* each container owns a real :class:`ResourceMultiplexer`, so handlers that
  build storage clients via ``context.create_resource`` share them.

:meth:`LocalPlatformConfig.vanilla` is the platform's half of the Vanilla
baseline: serial containers and no multiplexing (the gateway's ``vanilla``
policy supplies the other half, one request per group).
"""

from __future__ import annotations

import collections
import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.common.errors import (
    ConfigurationError,
    FunctionNotRegistered,
    PlatformDraining,
    PlatformStopped,
)
from repro.local.container import (
    DeadlineWatcher,
    Handler,
    LocalContainer,
    LocalInvocation,
    WorkerPool,
)
from repro.obs import DEFAULT_SIZE_EDGES, Observability

#: Lifecycle states of a :class:`LocalPlatform`.  ``accepting`` is the
#: steady state; :meth:`LocalPlatform.shutdown` moves through ``draining``
#: (in-flight work finishes, new submissions raise
#: :class:`~repro.common.errors.PlatformDraining`) to ``stopped``.
STATE_ACCEPTING = "accepting"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"

#: ``submit_group``'s completion hook: called once per finished attempt of
#: a group with the members it resolved, in submission order (each knows
#: its ``position`` in the submitted group).
OnResolved = Callable[[List[LocalInvocation]], None]

#: How long ``shutdown`` waits for runner threads to exit once everything
#: has drained.  Parked runners leave at once; only one still inside a
#: handler its timeout abandoned can outlast this (it is a daemon thread).
_RUNNER_EXIT_GRACE_SECONDS = 0.25

#: How long ``shutdown`` waits for in-flight work to drain, and for each
#: platform thread to exit.
SHUTDOWN_TIMEOUT_SECONDS = 30.0


#: How many answered invocations :class:`CompletionLog` keeps: about
#: 1.5 MB at ~360 B each, however long the platform serves.
RETAINED = 4096


class CompletionLog:
    """Answered invocations, numbered in answer order: ``len()`` counts
    every answer ever given; indexing, slicing (``log[len_before:]``) and
    iteration reach the newest :data:`RETAINED` only.  It shares its
    owner's *lock*: the owner extends it inside its own critical section
    and readers take the lock."""

    def __init__(self, lock: threading.Lock) -> None:
        self._kept = collections.deque(maxlen=RETAINED)
        self._total = 0
        self._lock = lock

    def extend(self, invocations: List[LocalInvocation]) -> None:
        """Append answers; the caller holds the lock."""
        self._kept.extend(invocations)
        self._total += len(invocations)

    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[LocalInvocation]:
        with self._lock:
            return iter(list(self._kept))

    def __getitem__(self, index):
        with self._lock:
            total, kept = self._total, list(self._kept)
        first = total - len(kept)
        numbers = range(total)[index]  # IndexError past either end
        if isinstance(numbers, int):
            if numbers < first:
                raise IndexError(f"answer {index} is not retained")
            return kept[numbers - first]
        # A kept number is among the last len(kept) of an ascending slice
        # and the first len(kept) of a descending one: look at those only.
        numbers = (numbers[-len(kept):] if numbers.step > 0
                   else numbers[:len(kept)])
        return [kept[number - first] for number in numbers
                if number >= first]


@dataclass(frozen=True)
class LocalPlatformConfig:
    """Knobs of the local runtime (all durations in seconds).  Warm
    containers are kept for the platform's lifetime."""

    cold_start_seconds: float = 0.002
    #: In-container concurrency: None = unbounded threads (inline parallel).
    container_concurrency: Optional[int] = None
    use_multiplexer: bool = True
    #: Wall-clock budget per handler call; overruns fail the attempt with
    #: :class:`~repro.common.errors.InvocationTimeout`.  None = unlimited.
    request_timeout_seconds: Optional[float] = None
    #: Total attempts per invocation (1 = no retries).  The failed members
    #: of a group retry together, as one new group, at once.
    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.request_timeout_seconds is not None \
                and self.request_timeout_seconds <= 0:
            raise ConfigurationError(
                f"request_timeout_seconds must be > 0 or None, "
                f"got {self.request_timeout_seconds}")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")

    @classmethod
    def vanilla(cls) -> "LocalPlatformConfig":
        """The Vanilla baseline: no sharing, no multiplexing."""
        return cls(container_concurrency=1, use_multiplexer=False)


class LocalPlatform:
    """An embeddable FaaSBatch runtime."""

    def __init__(self, config: Optional[LocalPlatformConfig] = None,
                 obs: Optional[Observability] = None) -> None:
        self.config = config if config is not None else LocalPlatformConfig()
        #: Observability bundle.  Metrics counters/histograms and (when
        #: tracing is on) per-invocation span timelines are published at
        #: resolution time under :attr:`_obs_lock` — the registry and
        #: tracer are not thread-safe and groups finish concurrently.
        self.obs = obs
        self._obs_lock = threading.Lock()
        self._epoch = time.monotonic()
        self._handlers: Dict[str, Handler] = {}
        #: Ready groups wait here for a runner: every thread that executes
        #: a group is a parked thread of this pool, never a new one.
        self._runners = WorkerPool("local-runner", self._run_group)
        timeout = self.config.request_timeout_seconds
        self._watcher = (DeadlineWatcher(timeout, "local-deadlines")
                         if timeout is not None else None)
        #: Guards the warm pool, the lifecycle state, the in-flight count,
        #: the counters and the completion log: a finished group takes it
        #: once for its container, log and counters, and once more to
        #: count itself out after its callers heard.
        self._lock = threading.Lock()
        #: Warm pool: per function, its idle containers.
        self._idle: Dict[str, List[LocalContainer]] = {}
        #: Every container, busy ones included.
        self._containers: Set[LocalContainer] = set()
        self._counter = itertools.count()
        self._container_counter = itertools.count()
        self._window_counter = itertools.count()
        self._state = STATE_ACCEPTING
        self._inflight = 0
        #: Signalled when the in-flight count reaches zero, and only while
        #: :meth:`drain` callers (counted here) wait on it.
        self._drained = threading.Condition(self._lock)
        self._drainers = 0
        self.containers_created = 0
        self.retries_scheduled = 0
        self.retries_exhausted = 0
        self.completed = CompletionLog(self._lock)

    # -- public API --------------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        """Register *handler* under function *name*."""
        if name in self._handlers:
            raise ConfigurationError(f"function {name!r} already registered")
        self._handlers[name] = handler

    @property
    def state(self) -> str:
        """Current lifecycle state: accepting, draining or stopped."""
        with self._lock:
            return self._state

    @property
    def obs_lock(self) -> threading.Lock:
        """The lock guarding ``self.obs`` publication.

        Concurrent readers (e.g. a live trace streamer polling the
        tracer while groups publish timelines) must hold it to see a
        consistent prefix.
        """
        return self._obs_lock

    @property
    def runners_started(self) -> int:
        """Runner threads ever started: the peak group concurrency seen."""
        return self._runners.started

    @property
    def runners_idle(self) -> int:
        """Runner threads parked right now, waiting for a ready group."""
        return self._runners.idle

    def has_function(self, name: str) -> bool:
        return name in self._handlers

    @property
    def functions(self) -> List[str]:
        """The registered function names, sorted."""
        return sorted(self._handlers)

    def _admit(self, count: int) -> None:
        """Count *count* new invocations in flight, or raise the typed
        lifecycle error.  The state check and the increment are one
        critical section so a submission can never race past a concurrent
        :meth:`shutdown`.
        """
        with self._lock:
            if self._state == STATE_DRAINING:
                raise PlatformDraining("platform is draining; no new work")
            if self._state == STATE_STOPPED:
                raise PlatformStopped("platform is stopped")
            self._inflight += count

    def submit_group(self, name: str, payloads: List[Any],
                     on_resolved: Optional[OnResolved] = None
                     ) -> List[LocalInvocation]:
        """Submit one ready group of *name*: the only way work enters.

        The caller has made the grouping decision (the gateway's event
        loop collected these requests in one dispatch window, or
        dispatched one alone), so the group goes straight onto the ready
        queue with a fresh window sequence number and runs in one
        container.  ``on_resolved(invocations)`` is called once per
        finished attempt of the group, with the members it resolved in
        submission order, after they have been accounted and published,
        on the platform thread that finished it — read each
        ``invocation.position`` / ``.result`` / ``.error`` there and hop
        back onto the event loop.  The members that
        fail a retryable attempt retry together as one new group, so a
        lone request retries alone and retries from different groups
        never merge.
        """
        if not payloads:
            raise ValueError("empty group")
        if name not in self._handlers:
            raise FunctionNotRegistered(name)
        now = time.monotonic()
        counter = self._counter
        group = [LocalInvocation(f"inv-{next(counter)}", name, payload, now,
                                 position=position, on_resolved=on_resolved)
                 for position, payload in enumerate(payloads)]
        self._admit(len(group))
        self._start_group(group)
        return group

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every submitted invocation has completed and its
        caller has heard."""
        with self._lock:
            self._drainers += 1
            try:
                drained = self._drained.wait_for(
                    lambda: self._inflight == 0, timeout)
            finally:
                self._drainers -= 1
        if not drained:
            raise TimeoutError(
                f"invocations still in flight after {timeout}s")

    def shutdown(self) -> None:
        """Drain in-flight work and stop: accepting → draining → stopped.

        Idempotent.  Submissions that arrive while draining raise
        :class:`~repro.common.errors.PlatformDraining`; once stopped they
        raise :class:`~repro.common.errors.PlatformStopped`.  Every platform
        thread is woken rather than left to notice: an idle platform
        stops in well under a millisecond per thread.  Draining, and each
        thread's exit, wait up to :data:`SHUTDOWN_TIMEOUT_SECONDS`.
        """
        timeout = SHUTDOWN_TIMEOUT_SECONDS
        with self._lock:
            if self._state == STATE_STOPPED:
                return
            self._state = STATE_DRAINING
        self.drain(timeout)
        # Wake everything first, then join.
        runners = self._runners.close()
        if self._watcher is not None:
            self._watcher.stop()
        with self._lock:
            containers, self._idle = list(self._containers), {}
        for container in containers:
            if container.is_idle:
                container.stop()  # retires its parked workers
        if self._watcher is not None:
            self._watcher.thread.join(timeout)
        grace_ends = time.monotonic() + min(timeout,
                                            _RUNNER_EXIT_GRACE_SECONDS)
        for runner in runners:
            runner.join(max(0.0, grace_ends - time.monotonic()))
        with self._lock:
            self._state = STATE_STOPPED

    # -- metrics --------------------------------------------------------------------

    def multiplexer_reuse_ratio(self) -> float:
        """Aggregate reuse ratio over all live containers (0 when unused)."""
        lookups = 0
        reused = 0
        with self._lock:
            containers = list(self._containers)
        for container in containers:
            if container.multiplexer is None:
                continue
            stats = container.multiplexer.stats
            lookups += stats.lookups
            reused += stats.hits + stats.in_flight_waits
        return reused / lookups if lookups else 0.0

    # -- groups ----------------------------------------------------------------------

    def _start_group(self, group: List[LocalInvocation]) -> None:
        """Stamp *group* with a fresh window sequence number and put it on
        the ready queue."""
        seq = next(self._window_counter)
        for invocation in group:
            invocation.window_seq = seq
        try:
            self._runners.submit(group)
        except Exception as error:  # "can't start new thread"
            self._fail_group(group, None, False, error)

    def _run_group(self, group: List[LocalInvocation]) -> None:
        """Body of a runner thread: serve one ready group.

        The container reports back through ``_finish_group`` from whichever
        thread settles the group's last member — this one, unless a
        timeout abandoned it inside a handler.
        """
        container, cold_started = None, False
        try:
            container, cold_started = self._acquire(group[0].function_name)
            container.execute_batch(group, functools.partial(
                self._finish_group, group, container, cold_started))
        except Exception as error:
            self._fail_group(group, container, cold_started, error)

    def _fail_group(self, group: List[LocalInvocation],
                    container: Optional[LocalContainer],
                    cold_started: bool, error: Exception) -> None:
        """A group failed outside any handler (no thread, no container).

        Every member without a recorded outcome fails with *error* and the
        group takes the normal retry/final path.  A group whose members
        all have outcomes has already been finished: the error came from
        finishing it and is reported, not accounted twice.
        """
        unsettled = [invocation for invocation in group
                     if invocation.completed_at is None]
        if not unsettled:
            raise error
        for invocation in unsettled:
            invocation.record(None, error)
        self._finish_group(group, container, cold_started)

    def _finish_group(self, group: List[LocalInvocation],
                      container: Optional[LocalContainer],
                      cold_started: bool) -> None:
        """Every member of *group* has an outcome: release, account,
        publish, resolve — and retry what may be retried, as one group."""
        container_id = None if container is None else container.container_id
        final, retry = [], []
        for invocation in group:
            invocation.container_id = container_id
            if invocation.error is not None \
                    and invocation.attempts < self.config.max_attempts:
                retry.append(invocation)
            else:
                final.append(invocation)
        # Account, publish, then resolve: a client holding its response
        # must never observe a platform that has not yet counted it.
        responded_at = time.monotonic()
        with self._lock:
            if container is not None:
                self._idle.setdefault(container.function_name,
                                      []).append(container)
            self.completed.extend(final)
            self.retries_scheduled += len(retry)
            self.retries_exhausted += sum(
                1 for invocation in final if invocation.error is not None)
        self._publish_group(group, final, len(retry), container_id,
                            cold_started, responded_at)
        if final:
            report = None  # every member carries its group's hook
            for invocation in final:
                report = invocation.mark_resolved() or report
            if report is not None:
                report(final)
            with self._lock:
                # Retried invocations never count out here, so reaching
                # zero means nothing is queued or running.
                self._inflight -= len(final)
                if self._inflight == 0 and self._drainers:
                    self._drained.notify_all()
        if retry:
            self._restart(retry)

    # -- observability ---------------------------------------------------------------

    def _ms(self, monotonic_seconds: float) -> float:
        """Wall-clock seconds → milliseconds since platform start."""
        return (monotonic_seconds - self._epoch) * 1000.0

    def _publish_group(self, group: List[LocalInvocation],
                       final: List[LocalInvocation], retried: int,
                       container_id: Optional[str],
                       cold_started: bool,
                       responded_at: float) -> None:
        """Publish the group's spans and counters into ``self.obs``.

        Called once per executed group from the thread that finished it;
        the shared tracer/registry are guarded by ``_obs_lock``.  Spans
        are emitted only for *final* invocations (the attempt that
        resolved the caller), using the current attempt's timestamps — so
        one timeline per invocation, never a duplicate-arrival error on
        retries.
        """
        if self.obs is None:
            return
        cold_ms = (self.config.cold_start_seconds * 1000.0
                   if cold_started else 0.0)
        with self._obs_lock:
            metrics = self.obs.metrics
            metrics.counter("local.windows.executed").inc()
            metrics.histogram("local.batch_size",
                              DEFAULT_SIZE_EDGES).observe(len(group))
            if cold_started:
                metrics.counter("local.cold_starts").inc()
            if retried:
                metrics.counter("local.retries.scheduled").inc(retried)
            latency_hist = metrics.histogram("local.latency_ms")
            for invocation in final:
                if invocation.error is not None:
                    metrics.counter("local.invocations.failed").inc()
                else:
                    metrics.counter("local.invocations.completed").inc()
                    latency_hist.observe(
                        invocation.latency_seconds * 1000.0)
                if invocation.attempts > 1:
                    metrics.counter("local.invocations.retried").inc()
            tracer = self.obs.tracer
            if not tracer.enabled:
                return
            for invocation in final:
                self._publish_timeline(tracer, invocation, container_id,
                                       cold_ms, responded_at)

    def _publish_timeline(self, tracer, invocation: LocalInvocation,
                          container_id: Optional[str], cold_ms: float,
                          responded_at: float) -> None:
        if invocation.dispatched_at is None \
                or invocation.started_at is None \
                or invocation.completed_at is None:
            return
        tracer.invocation_arrived(
            invocation.invocation_id, invocation.function_name,
            self._ms(invocation.submitted_at))
        tracer.invocation_dispatched(
            invocation.invocation_id, self._ms(invocation.dispatched_at),
            min(cold_ms, self._ms(invocation.dispatched_at)
                - self._ms(invocation.submitted_at)),
            container_id)
        tracer.execution_started(
            invocation.invocation_id, self._ms(invocation.started_at),
            container_id)
        if invocation.error is not None:
            tracer.execution_failed(
                invocation.invocation_id,
                self._ms(invocation.completed_at), invocation.error)
        else:
            tracer.execution_completed(
                invocation.invocation_id,
                self._ms(invocation.completed_at))
        tracer.invocation_responded(
            invocation.invocation_id, self._ms(responded_at))

    def _restart(self, group: List[LocalInvocation]) -> None:
        """Restart a group's failed members at once, as one group.

        The members stay in flight — ``drain`` keeps waiting — and keep
        the grouping of the tier that admitted them: the retry runs in a
        fresh window of its own, never merged with other traffic.
        """
        for invocation in group:
            invocation.reset_for_retry()
        self._start_group(group)

    # -- warm pool ----------------------------------------------------------------------

    def _acquire(self, name: str) -> Tuple[LocalContainer, bool]:
        """Pop a warm container or cold-start a new one.

        Returns ``(container, cold_started)`` so callers can attribute the
        cold-start cost to the invocations that waited on it.
        """
        with self._lock:
            idle = self._idle.get(name)
            if idle:
                return idle.pop(), False
        container = LocalContainer(
            container_id=f"container-{next(self._container_counter)}",
            function_name=name,
            handler=self._handlers[name],
            concurrency=self.config.container_concurrency,
            use_multiplexer=self.config.use_multiplexer,
            cold_start_seconds=self.config.cold_start_seconds,
            timeout_seconds=self.config.request_timeout_seconds,
            defer_resolution=True,
            watcher=self._watcher)
        with self._lock:
            self.containers_created += 1
            self._containers.add(container)
        return container, True
