"""LocalPlatform: a real, in-process FaaSBatch runtime (threads, no sim).

A miniature serverless platform that actually runs Python handlers:

* requests enter a queue; a dispatcher thread gathers them in **dispatch
  windows** and groups them per function (Invoke Mapper);
* each group is mapped onto a single warm-or-new container and expanded as
  parallel threads (Inline-Parallel Producer);
* each container owns a real :class:`ResourceMultiplexer`, so handlers that
  build storage clients via ``context.create_resource`` share them.

Two policies ship for comparison: ``"faasbatch"`` (the above) and
``"vanilla"`` (zero window, one single-invocation group per request, serial
containers, no multiplexing) — enough to demonstrate the paper's headline
effects on a laptop in milliseconds.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import (
    ConfigurationError,
    FunctionNotRegistered,
    PlatformDraining,
    PlatformStopped,
)
from repro.local.container import Handler, LocalContainer, LocalInvocation
from repro.obs import DEFAULT_SIZE_EDGES, Observability

_POLICIES = ("faasbatch", "vanilla")

#: Lifecycle states of a :class:`LocalPlatform`.  ``accepting`` is the
#: steady state; :meth:`LocalPlatform.shutdown` moves through ``draining``
#: (in-flight work finishes, new submissions raise
#: :class:`~repro.common.errors.PlatformDraining`) to ``stopped``.
STATE_ACCEPTING = "accepting"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"


@dataclass(frozen=True)
class LocalPlatformConfig:
    """Knobs of the local runtime (all durations in seconds)."""

    policy: str = "faasbatch"
    window_seconds: float = 0.02
    cold_start_seconds: float = 0.002
    #: In-container concurrency: None = unbounded threads (inline parallel).
    container_concurrency: Optional[int] = None
    use_multiplexer: bool = True
    #: Idle warm containers are reclaimed after this long; None keeps them
    #: forever (the default: examples/tests are short-lived).
    keep_alive_seconds: Optional[float] = None
    #: Wall-clock budget per handler call; overruns fail the attempt with
    #: :class:`~repro.common.errors.InvocationTimeout`.  None = unlimited.
    request_timeout_seconds: Optional[float] = None
    #: Total attempts per invocation (1 = no retries).  Failed attempts are
    #: re-enqueued through the dispatcher, so retried work re-batches.
    max_attempts: int = 1
    #: Base delay before re-enqueueing a failed attempt; doubles per retry.
    retry_backoff_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ConfigurationError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if self.window_seconds < 0:
            raise ConfigurationError(
                f"window_seconds must be >= 0, got {self.window_seconds}")
        if self.keep_alive_seconds is not None \
                and self.keep_alive_seconds <= 0:
            raise ConfigurationError(
                f"keep_alive_seconds must be > 0 or None, "
                f"got {self.keep_alive_seconds}")
        if self.request_timeout_seconds is not None \
                and self.request_timeout_seconds <= 0:
            raise ConfigurationError(
                f"request_timeout_seconds must be > 0 or None, "
                f"got {self.request_timeout_seconds}")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.retry_backoff_seconds < 0:
            raise ConfigurationError(
                f"retry_backoff_seconds must be >= 0, "
                f"got {self.retry_backoff_seconds}")

    @classmethod
    def vanilla(cls) -> "LocalPlatformConfig":
        """The Vanilla baseline: no batching, no sharing, no multiplexing."""
        return cls(policy="vanilla", window_seconds=0.0,
                   container_concurrency=1, use_multiplexer=False)


class LocalPlatform:
    """An embeddable FaaSBatch runtime."""

    def __init__(self, config: Optional[LocalPlatformConfig] = None,
                 obs: Optional[Observability] = None) -> None:
        self.config = config if config is not None else LocalPlatformConfig()
        #: Observability bundle.  Metrics counters/histograms and (when
        #: tracing is on) per-invocation span timelines are published at
        #: resolution time under :attr:`_obs_lock` — the registry and
        #: tracer are not thread-safe and group workers are concurrent.
        self.obs = obs
        self._obs_lock = threading.Lock()
        self._epoch = time.monotonic()
        self._handlers: Dict[str, Handler] = {}
        self._queue: "queue.Queue[LocalInvocation]" = queue.Queue()
        self._idle: Dict[str, List[LocalContainer]] = {}
        self._pool_lock = threading.Lock()
        self._counter = itertools.count()
        self._container_counter = itertools.count()
        self._window_counter = itertools.count()
        self._shutdown = threading.Event()
        self._state = STATE_ACCEPTING
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._inflight_zero = threading.Event()
        self._inflight_zero.set()
        self.containers_created = 0
        self.containers_expired = 0
        self.retries_scheduled = 0
        self.retries_exhausted = 0
        self._released_at: Dict[str, float] = {}
        self.completed: List[LocalInvocation] = []
        self._completed_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="local-dispatcher", daemon=True)
        self._dispatcher.start()
        self._janitor: Optional[threading.Thread] = None
        if self.config.keep_alive_seconds is not None:
            self._janitor = threading.Thread(
                target=self._janitor_loop, name="local-janitor", daemon=True)
            self._janitor.start()

    # -- public API --------------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        """Register *handler* under function *name*."""
        if name in self._handlers:
            raise ConfigurationError(f"function {name!r} already registered")
        self._handlers[name] = handler

    def function(self, name: Optional[str] = None):
        """Decorator form of :meth:`register`.

        ::

            @platform.function()
            def resize(payload, context): ...
        """

        def decorate(handler: Handler) -> Handler:
            self.register(name or handler.__name__, handler)
            return handler

        return decorate

    @property
    def state(self) -> str:
        """Current lifecycle state: accepting, draining or stopped."""
        with self._inflight_lock:
            return self._state

    @property
    def obs_lock(self) -> threading.Lock:
        """The lock guarding ``self.obs`` publication.

        Concurrent readers (e.g. a live trace streamer polling the
        tracer while group workers publish timelines) must hold it to
        see a consistent prefix.
        """
        return self._obs_lock

    def has_function(self, name: str) -> bool:
        return name in self._handlers

    def registered_functions(self) -> List[str]:
        return sorted(self._handlers)

    def _check_accepting(self) -> None:
        """Raise the typed lifecycle error if submissions are closed.

        Caller holds ``_inflight_lock`` — the state check and the
        in-flight increment must be atomic so a submission can never race
        past a concurrent :meth:`shutdown`.
        """
        if self._state == STATE_DRAINING:
            raise PlatformDraining("platform is draining; no new work")
        if self._state == STATE_STOPPED:
            raise PlatformStopped("platform is stopped")

    def invoke(self, name: str, payload: Any = None) -> Future:
        """Fire one invocation; returns a Future with the handler's result."""
        if name not in self._handlers:
            raise FunctionNotRegistered(name)
        invocation = LocalInvocation(
            invocation_id=f"inv-{next(self._counter)}",
            function_name=name, payload=payload)
        with self._inflight_lock:
            self._check_accepting()
            self._inflight += 1
            self._inflight_zero.clear()
        self._queue.put(invocation)
        return invocation.future

    def invoke_many(self, name: str, payloads: List[Any]) -> List[Future]:
        """Fire a burst of invocations."""
        return [self.invoke(name, payload) for payload in payloads]

    def submit_group(self, name: str,
                     payloads: List[Any]) -> List[LocalInvocation]:
        """Submit a pre-batched group of one function, bypassing the window.

        The async-bridge hook for the gateway: its event loop already
        collected these requests in a dispatch window, so the group goes
        straight to a worker thread (fresh window sequence number) and
        shares the warm pool, retry, timeout and accounting machinery with
        queued traffic.  Returns the live :class:`LocalInvocation` objects
        so the caller can bridge each ``invocation.future``
        (``asyncio.wrap_future`` / ``add_done_callback``) back onto its
        event loop.  Retried attempts re-enter the normal dispatcher
        queue and re-batch there.
        """
        if not payloads:
            raise ValueError("empty group")
        if name not in self._handlers:
            raise FunctionNotRegistered(name)
        group = [LocalInvocation(
            invocation_id=f"inv-{next(self._counter)}",
            function_name=name, payload=payload) for payload in payloads]
        with self._inflight_lock:
            self._check_accepting()
            self._inflight += len(group)
            self._inflight_zero.clear()
        seq = next(self._window_counter)
        for invocation in group:
            invocation.window_seq = seq
        worker = threading.Thread(
            target=self._run_group, args=(group,),
            name=f"group:{name}", daemon=True)
        worker.start()
        return group

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every submitted invocation has completed."""
        if not self._inflight_zero.wait(timeout):
            raise TimeoutError(
                f"invocations still in flight after {timeout}s")

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain in-flight work and stop: accepting → draining → stopped.

        Idempotent.  Submissions that arrive while draining raise
        :class:`~repro.common.errors.PlatformDraining`; after the
        dispatcher stops they raise
        :class:`~repro.common.errors.PlatformStopped`.
        """
        with self._inflight_lock:
            if self._state == STATE_STOPPED:
                return
            self._state = STATE_DRAINING
        self.drain(timeout)
        self._shutdown.set()
        self._dispatcher.join(timeout)
        if self._janitor is not None:
            self._janitor.join(timeout)
        with self._inflight_lock:
            self._state = STATE_STOPPED

    # -- metrics --------------------------------------------------------------------

    def latencies_seconds(self) -> List[float]:
        with self._completed_lock:
            return [inv.latency_seconds for inv in self.completed]

    def multiplexer_reuse_ratio(self) -> float:
        """Aggregate reuse ratio over all containers (0 when unused)."""
        lookups = 0
        reused = 0
        for containers in self._idle.values():
            for container in containers:
                if container.multiplexer is None:
                    continue
                metrics = container.multiplexer.metrics
                lookups += metrics.lookups
                reused += metrics.hits + metrics.in_flight_waits
        return reused / lookups if lookups else 0.0

    # -- dispatcher ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            batch = [first]
            if self.config.policy == "faasbatch" and \
                    self.config.window_seconds > 0:
                deadline = time.monotonic() + self.config.window_seconds
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(self._queue.get(timeout=remaining))
                    except queue.Empty:
                        break
            seq = next(self._window_counter)
            for invocation in batch:
                invocation.window_seq = seq
            for group in self._form_groups(batch):
                worker = threading.Thread(
                    target=self._run_group, args=(group,),
                    name=f"group:{group[0].function_name}", daemon=True)
                worker.start()

    def _form_groups(self, batch: List[LocalInvocation]
                     ) -> List[List[LocalInvocation]]:
        if self.config.policy == "vanilla":
            return [[invocation] for invocation in batch]
        by_function: Dict[str, List[LocalInvocation]] = {}
        for invocation in batch:
            by_function.setdefault(invocation.function_name,
                                   []).append(invocation)
        return list(by_function.values())

    def _run_group(self, group: List[LocalInvocation]) -> None:
        name = group[0].function_name
        container, cold_started = self._acquire(name)
        try:
            container.execute_batch(group)
        finally:
            self._release(container)
            final, retry = [], []
            for invocation in group:
                invocation.attempt_history.append({
                    "attempt": invocation.attempts,
                    "window_seq": invocation.window_seq,
                    "container_id": container.container_id,
                    "error": (type(invocation.error).__name__
                              if invocation.error is not None else None),
                })
                if invocation.error is not None \
                        and invocation.attempts < self.config.max_attempts:
                    retry.append(invocation)
                else:
                    final.append(invocation)
            # Account, publish, then resolve: a client holding its response
            # must never observe a platform that has not yet counted it.
            responded_at = time.monotonic()
            with self._completed_lock:
                self.completed.extend(final)
            self._publish_group(group, final, container, cold_started,
                                responded_at)
            for invocation in final:
                if invocation.error is not None:
                    self.retries_exhausted += 1
                invocation.resolve()
            with self._inflight_lock:
                # Retried invocations never decrement here, so reaching
                # zero means nothing is queued, running, or backing off.
                self._inflight -= len(final)
                if self._inflight == 0:
                    self._inflight_zero.set()
            for invocation in retry:
                self._schedule_retry(invocation)

    # -- observability ---------------------------------------------------------------

    def _ms(self, monotonic_seconds: float) -> float:
        """Wall-clock seconds → milliseconds since platform start."""
        return (monotonic_seconds - self._epoch) * 1000.0

    def _publish_group(self, group: List[LocalInvocation],
                       final: List[LocalInvocation],
                       container: LocalContainer,
                       cold_started: bool,
                       responded_at: float) -> None:
        """Publish the group's spans and counters into ``self.obs``.

        Called once per executed group from its worker thread; the shared
        tracer/registry are guarded by ``_obs_lock``.  Spans are emitted
        only for *final* invocations (the attempt that resolved the
        future), using the current attempt's timestamps — so one timeline
        per invocation, never a duplicate-arrival error on retries.
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
                self._publish_timeline(tracer, invocation, container,
                                       cold_ms, responded_at)

    def _publish_timeline(self, tracer, invocation: LocalInvocation,
                          container: LocalContainer, cold_ms: float,
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
            container.container_id)
        tracer.execution_started(
            invocation.invocation_id, self._ms(invocation.started_at),
            container.container_id)
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

    def _schedule_retry(self, invocation: LocalInvocation) -> None:
        """Re-enqueue a failed attempt after its (exponential) backoff.

        The invocation stays in flight — ``drain`` keeps waiting — and
        re-enters the dispatch queue, so a retry can batch with whatever
        traffic is in the window when it lands.
        """
        invocation.reset_for_retry()
        self.retries_scheduled += 1
        if self.obs is not None:
            with self._obs_lock:
                self.obs.metrics.counter("local.retries.scheduled").inc()
        retry_number = invocation.attempts - 1  # 1 for the first retry
        delay = self.config.retry_backoff_seconds * 2 ** (retry_number - 1)
        if delay > 0:
            timer = threading.Timer(delay, self._queue.put,
                                    args=(invocation,))
            timer.daemon = True
            timer.start()
        else:
            self._queue.put(invocation)

    # -- warm pool ----------------------------------------------------------------------

    def _acquire(self, name: str) -> Tuple[LocalContainer, bool]:
        """Pop a warm container or cold-start a new one.

        Returns ``(container, cold_started)`` so callers can attribute the
        cold-start cost to the invocations that waited on it.
        """
        with self._pool_lock:
            idle = self._idle.get(name, [])
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
            defer_resolution=True)
        with self._pool_lock:
            self.containers_created += 1
        return container, True

    def _release(self, container: LocalContainer) -> None:
        with self._pool_lock:
            self._idle.setdefault(container.function_name,
                                  []).append(container)
            self._released_at[container.container_id] = time.monotonic()

    def _janitor_loop(self) -> None:
        """Reclaim idle warm containers past their keep-alive window."""
        keep_alive = self.config.keep_alive_seconds
        assert keep_alive is not None
        while not self._shutdown.wait(min(keep_alive / 4.0, 0.5)):
            deadline = time.monotonic() - keep_alive
            with self._pool_lock:
                for name, idle in self._idle.items():
                    survivors = []
                    for container in idle:
                        released = self._released_at.get(
                            container.container_id, 0.0)
                        if released < deadline and container.is_idle:
                            container.stop()
                            self.containers_expired += 1
                        else:
                            survivors.append(container)
                    self._idle[name] = survivors
