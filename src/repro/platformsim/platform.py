"""The serverless platform: request queue, container services, accounting.

:class:`ServerlessPlatform` is the substrate every scheduling policy runs
on.  It owns the worker machine, the docker facade, the warm-container pool
and the request queue, and exposes the primitives schedulers compose:

* ``submit`` — a request arrives (called by the gateway);
* ``dispatch_work`` / ``launch_work`` — the host CPU cost of scheduling
  decisions (these contend with function execution, which is what makes
  Vanilla's scheduling latency collapse under bursts, Figs. 11a/12a);
* ``acquire_container`` — warm-pool hit or cold start;
* ``release_container`` — return a container to the keep-alive pool;
* ``note_completed`` — completion bookkeeping, then the completion
  listeners.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.common.errors import (
    ColdStartFailed,
    FunctionNotRegistered,
    SchedulingError,
)
from repro.common.ids import IdFactory
from repro.faults.resilience import ResilienceManager, ResiliencePolicy
from repro.core.multiplexer import SimResourceMultiplexer
from repro.obs import DEFAULT_SIZE_EDGES, Observability
from repro.obs.metrics import LazyMetrics
from repro.model.calibration import Calibration
from repro.model.container import SimContainer
from repro.model.docker import SimDockerClient
from repro.model.function import FunctionSpec, Invocation
from repro.model.pool import ContainerPool
from repro.sim.kernel import Environment, Event
from repro.sim.machine import Machine
from repro.sim.primitives import Resource, Store
from repro.workload.trace import TraceRecord

if TYPE_CHECKING:  # the injector installs itself; avoid a runtime cycle
    from repro.faults.injector import FaultInjector


class ServerlessPlatform:
    """One worker-machine serverless platform instance."""

    #: CPU-group name of the platform process (the paper's prototype is a
    #: Python service: its scheduling work is GIL-serialised and its cgroup
    #: competes with the containers for host cores).
    PLATFORM_GROUP = "platform"

    def __init__(self, env: Environment, machine: Machine,
                 calibration: Calibration,
                 ids: Optional[IdFactory] = None,
                 obs: Optional[Observability] = None,
                 resilience: Optional[ResiliencePolicy] = None) -> None:
        self.env = env
        #: Observability bundle: span tracer + sampler (off by default)
        #: + metrics.  Bound at the end of construction, once every
        #: telemetry probe below is registered.
        self.obs = obs if obs is not None else Observability()
        self.machine = machine
        self.calibration = calibration
        self.ids = ids if ids is not None else IdFactory()
        self.docker = SimDockerClient(env, machine, calibration, ids=self.ids,
                                      obs=self.obs)
        self.pool = ContainerPool(env, keep_alive_ms=calibration.keep_alive_ms,
                                  metrics=self.obs.metrics)
        self.request_queue: Store[Invocation] = Store(env)
        self.functions: Dict[str, FunctionSpec] = {}
        #: Called with every final outcome; the platform keeps none.
        self.completion_listeners: List = []
        # The platform process: one GIL (decisions serialise) and a CPU
        # group capped at a single core's worth of execution.
        self.machine.cpu.create_group(self.PLATFORM_GROUP, cap=1.0)
        self._gil = Resource(env, capacity=1)
        self.pool.set_expiry_callback(self._on_container_expired)
        #: Fault injector, set by :meth:`FaultInjector.install` (None = no
        #: faults; every hook below is guarded so the off path is free).
        self.faults: Optional["FaultInjector"] = None
        #: Recovery engine (retries/timeouts/hedging/breaker), or None.
        self.resilience: Optional[ResilienceManager] = (
            ResilienceManager(self, resilience)
            if resilience is not None else None)
        #: Dispatch windows currently open across the windowed schedulers
        #: (FaaSBatch's mapper, Kraken); maintained via the pure-observer
        #: window callbacks and sampled into ``scheduler.open_windows``.
        self._open_windows = self.obs.metrics.gauge("scheduler.open_windows")
        # Metric handles, created on first publish: eager creation would
        # add zero-valued rows to snapshot digests pinned by the golden
        # tests (the registry only snapshots what exists).
        self._m = LazyMetrics(
            self.obs.metrics,
            requests=("counter", "platform.requests"),
            requeued=("counter", "platform.requeued"),
            windows_opened=("counter", "scheduler.windows_opened"),
            dispatch_decisions=("counter", "platform.dispatch_decisions"),
            dispatch_batch=("histogram", "platform.dispatch_batch_size",
                            DEFAULT_SIZE_EDGES),
            launch_decisions=("counter", "platform.launch_decisions"),
            cold_start=("histogram", "platform.cold_start_ms"),
            batch_size=("histogram", "scheduler.batch_size",
                        DEFAULT_SIZE_EDGES),
            completed=("counter", "platform.completed"),
            failed=("counter", "platform.failed"),
            e2e=("histogram", "platform.e2e_latency_ms"))
        self._register_telemetry_probes()
        self.obs.bind(env)

    def _register_telemetry_probes(self) -> None:
        """Point the time-series sampler at this platform's instruments.

        Probes are plain reads of live state — evaluated only at sample
        boundaries, never scheduling work — so registration is free when
        sampling is disabled.
        """
        sampler = self.obs.sampler
        sampler.register_probe(
            "platform.pending_requests",
            lambda: float(len(self.request_queue)))
        sampler.register_probe(
            "scheduler.open_windows",
            lambda: float(self._open_windows.value))
        sampler.register_probe(
            "pool.idle_containers",
            lambda: float(self.pool.idle_count()))
        sampler.register_probe(
            "containers.live", lambda: float(self.docker.running_count()))
        sampler.register_probe(
            "containers.busy", lambda: float(self.docker.busy_count()))
        sampler.register_probe("cpu.utilization",
                               self.machine.cpu.utilization)
        sampler.register_probe(
            "cpu.runnable_groups",
            lambda: float(self.machine.cpu.runnable_group_count()))
        sampler.register_probe("memory.used_mb",
                               lambda: self.machine.memory.used_mb)

    # -- window observation (pure; used by the windowed schedulers) ---------------

    def window_opened(self, _time_ms: float) -> None:
        self._open_windows.inc()
        self._m.windows_opened.inc()

    def window_closed(self, _time_ms: float) -> None:
        self._open_windows.dec()

    def _on_container_expired(self, container: SimContainer) -> None:
        if self.obs.tracer.enabled:
            self.obs.tracer.container_event(container.container_id,
                                            "expired", self.env.now)

    # -- registration / arrival ----------------------------------------------------

    def register_function(self, spec: FunctionSpec) -> None:
        if spec.function_id in self.functions:
            raise SchedulingError(
                f"function {spec.function_id!r} registered twice")
        self.functions[spec.function_id] = spec

    def submit(self, record: TraceRecord) -> Invocation:
        """A request arrives at the platform (stamped with the current time)."""
        spec = self.functions.get(record.function_id)
        if spec is None:
            raise FunctionNotRegistered(record.function_id)
        invocation = Invocation(
            invocation_id=self.ids.next("inv"),
            function=spec,
            payload=record.payload,
            arrival_ms=self.env.now)
        self.request_queue.put(invocation)
        if self.obs.tracer.enabled:
            self.obs.tracer.invocation_arrived(
                invocation.invocation_id, record.function_id, self.env.now)
        self._m.requests.inc()
        return invocation

    def requeue(self, invocation: Invocation) -> None:
        """Re-enqueue a retried invocation; the scheduler re-batches it.

        Called by the resilience layer after the backoff delay.  The
        invocation was already reset (:meth:`Invocation.reset_for_retry`),
        so it looks like a fresh arrival to whatever policy is serving the
        queue — under FaaSBatch/Kraken it groups with other queued work.
        """
        self.request_queue.put(invocation)
        if self.obs.tracer.enabled:
            self.obs.tracer.invocation_arrived(
                invocation.trace_id, invocation.function.function_id,
                self.env.now)
        self._m.requeued.inc()

    # -- scheduler primitives ---------------------------------------------------------

    def dispatch_work(self, invocation_count: int = 1) -> Event:
        """Platform CPU work of dispatching *invocation_count* requests.

        Runs inside the platform process: serialised by its GIL and capped
        at one core, contended with the containers' groups.  Under a burst
        of per-invocation decisions this is the queueing bottleneck behind
        Vanilla's and SFS's multi-second scheduling tails (Figs. 11a/12a);
        FaaSBatch makes one decision per *group* and stays sub-second.
        """
        work = (self.calibration.scheduling_cpu_work_per_decision_ms
                + self.calibration.scheduling_cpu_work_per_invocation_ms
                * invocation_count)
        self._m.dispatch_decisions.inc()
        self._m.dispatch_batch.observe(invocation_count)
        return self._platform_work(work, label="dispatch")

    def launch_work(self) -> Event:
        """Platform CPU work of one container-launch decision (docker API)."""
        self._m.launch_decisions.inc()
        return self._platform_work(
            self.calibration.scheduling_cpu_work_per_launch_ms,
            label="launch")

    def _platform_work(self, work: float, label: str) -> Event:
        """Run *work* core-ms in the GIL-serialised platform process."""

        def run():
            token = self._gil.request()
            yield token
            try:
                yield self.machine.cpu.submit(work, group=self.PLATFORM_GROUP)
            finally:
                token.release()

        return self.env.process(run(), name=f"platform-{label}")

    def try_acquire_warm(self, function: FunctionSpec) -> Optional[SimContainer]:
        """Non-blocking warm-pool check-and-take (the prototype's fast path).

        Real handler threads check the pool the moment a request arrives —
        concurrently.  Under a burst they all observe an empty pool and all
        decide to cold-start, which is exactly how Vanilla ends up
        provisioning hundreds of containers (§V-B2).
        """
        return self.pool.acquire(function.function_id)

    def cold_start(self, function: FunctionSpec,
                   concurrency_limit: Optional[int],
                   with_multiplexer: bool):
        """Generator: provision a fresh container; returns (container, cold_ms).

        Raises :class:`~repro.common.errors.ColdStartRefused` (fail-fast,
        no latency paid) while the function's circuit breaker is open, and
        :class:`~repro.common.errors.ColdStartFailed` (latency paid, the
        container died) when the fault plan fails this start.  Both are
        transient: callers hand the affected invocations to
        :meth:`fail_undispatched` so the retry path can re-enqueue them.
        """
        if self.resilience is not None:
            self.resilience.check_cold_start_allowed(function)
        multiplexer = (SimResourceMultiplexer(self.env)
                       if with_multiplexer else None)
        handle = self.docker.containers.run(
            function, concurrency_limit=concurrency_limit,
            multiplexer=multiplexer)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.container_event(handle.id, "cold-start-began",
                                   self.env.now,
                                   function_id=function.function_id)
        cold_start_ms = yield handle.started
        if self.faults is not None \
                and self.faults.take_cold_start_fault(function):
            # The provisioning latency was paid, then the container died
            # before serving anything.  It never enters the pool's books.
            handle.sim.stop()
            if tracer.enabled:
                tracer.container_event(
                    handle.id, "cold-start-failed", self.env.now,
                    function_id=function.function_id)
            if self.resilience is not None:
                self.resilience.record_cold_start_failure(
                    function.function_id)
            raise ColdStartFailed(
                f"{handle.id} died starting {function.function_id!r}")
        self.pool.register_started(handle.sim)
        cold_start_ms = float(cold_start_ms)
        if tracer.enabled:
            tracer.container_event(handle.id, "cold-start-ended",
                                   self.env.now, cold_start_ms=cold_start_ms)
        self._m.cold_start.observe(cold_start_ms)
        if self.resilience is not None:
            self.resilience.record_cold_start_success(function.function_id)
        if self.faults is not None:
            self.faults.on_container_started(handle.sim)
        return handle.sim, cold_start_ms

    def acquire_container(self, function: FunctionSpec,
                          concurrency_limit: Optional[int],
                          with_multiplexer: bool):
        """Generator: warm hit or cold start, whichever is available *now*.

        Returns ``(container, cold_start_ms)`` — zero for warm hits.  The
        caller decides where in its control flow to pay
        :meth:`launch_work`.
        """
        warm = self.try_acquire_warm(function)
        if warm is not None:
            return warm, 0.0
        container, cold_start_ms = yield from self.cold_start(
            function, concurrency_limit, with_multiplexer)
        return container, cold_start_ms

    def release_container(self, container: SimContainer) -> None:
        tracer = self.obs.tracer
        if not self.pool.release(container):
            # Crashed/stopped out of band: the pool refused to re-park it.
            if tracer.enabled:
                tracer.container_event(container.container_id,
                                       "release-rejected", self.env.now)
            return
        if tracer.enabled:
            tracer.container_event(container.container_id, "released",
                                   self.env.now)

    # -- dispatch ------------------------------------------------------------------

    def begin_dispatch(self, container: SimContainer,
                       invocations: List[Invocation],
                       cold_start_ms: float) -> List[Invocation]:
        """Stamp dispatch of *invocations* to *container*; returns accepted.

        The single dispatch point shared by every scheduler: injected
        dispatch faults divert their invocations straight into the normal
        completion path (where the retry logic sees them), everything else
        is stamped, traced and armed with the resilience watchdogs.  With
        no faults and no policy this reduces exactly to the old inline
        ``mark_dispatched`` + tracer loop.
        """
        now = self.env.now
        tracer = self.obs.tracer
        accepted: List[Invocation] = []
        for invocation in invocations:
            if self.faults is not None:
                error = self.faults.take_dispatch_fault(invocation)
                if error is not None:
                    invocation.mark_failed(now, error)
                    self.note_completed(invocation)
                    continue
            invocation.mark_dispatched(now, cold_start_ms)
            if tracer.enabled:
                tracer.invocation_dispatched(
                    invocation.trace_id, now, cold_start_ms,
                    container.container_id)
            if self.resilience is not None:
                self.resilience.watch(invocation, container)
            accepted.append(invocation)
        return accepted

    def note_batch_started(self, container: SimContainer, batch_size: int,
                           function_id: Optional[str],
                           record_size: bool) -> None:
        """Record a batch handed to *container*: trace, batch size."""
        tracer = self.obs.tracer
        if tracer.enabled:
            extra = {} if function_id is None \
                else {"function_id": function_id}
            tracer.container_event(container.container_id, "batch-started",
                                   self.env.now, batch_size=batch_size,
                                   **extra)
        if record_size:
            self._m.batch_size.observe(batch_size)

    def fail_undispatched(self, invocations: List[Invocation],
                          error: BaseException) -> None:
        """Fail *invocations* that never reached a container.

        Used when a cold start dies or is refused: the invocations flow
        through :meth:`note_completed` so retries (or final failure
        accounting) happen exactly as for an execution failure.
        """
        now = self.env.now
        for invocation in invocations:
            invocation.mark_failed(now, error)
            self.note_completed(invocation)

    # -- completion -----------------------------------------------------------------

    def note_completed(self, invocation: Invocation) -> None:
        failed = invocation.error is not None
        if failed and self.resilience is not None \
                and self.resilience.should_retry(invocation):
            # Intercepted: the attempt is archived and the invocation
            # re-enqueued after backoff.  Only *final* outcomes reach the
            # completion listeners.
            self.resilience.schedule_retry(invocation)
            return
        if self.obs.tracer.enabled:
            responded = invocation.responded_ms
            self.obs.tracer.invocation_responded(
                invocation.trace_id,
                self.env.now if responded is None else responded)
        if failed:
            self._m.failed.inc()
        else:
            self._m.completed.inc()
            if invocation.completed_ms is not None:
                self._m.e2e.observe(invocation.end_to_end_ms)
        for listener in self.completion_listeners:
            listener(invocation)

    def dismantle(self) -> None:
        """Cut the reference cycles through this platform once its run is
        over; it cannot run afterwards."""
        self.pool.set_expiry_callback(None)
        self.faults = self.resilience = None
        self.docker.dismantle()
        self.machine.cpu.dismantle()

    # -- metrics helpers ----------------------------------------------------------------

    def provisioned_containers(self) -> int:
        """Containers cold-started during the run (Figs. 13b/14b)."""
        return self.pool.provisioned_total
