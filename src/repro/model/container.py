"""Simulated container: lifecycle, CPU group, in-container execution.

A container in this model matches the paper's prototype containers:

* It is **per-function** (one image per function; §V-A2 notes an identical
  base image, but a warm container can only serve its own function).
* A **cold start** costs a fixed provisioning latency plus host CPU work
  (docker create/start); the CPU part contends with everything else running
  on the worker, which is why cold starts stretch when hundreds of
  containers launch at once (Figs. 11b/12b).
* Execution happens on the container's **CPU group**, capped by the
  customer's ``cpu_count``/``cpuset_cpus`` limit (§III-C step 2).
* An optional **concurrency limit** models how many invocations may execute
  simultaneously inside the container: ``None`` for FaaSBatch's inline
  parallelism (threads, unbounded), ``1`` for Kraken's serial batch queue,
  and irrelevant for Vanilla/SFS which send one invocation per container.
* An optional **resource multiplexer** intercepts storage-client creations
  (§III-D); without one, every invocation builds its own client, paying the
  contended creation cost and 15 MB of memory (Figs. 4/5/14d).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.common.errors import ContainerStateError, ProcessInterrupted
from repro.model.calibration import Calibration
from repro.model.function import FunctionSpec, Invocation
from repro.model.storage import ClientInstance, StorageClientCostModel
from repro.model.workprofile import ClientCreation, CpuWork, IoWait, WorkProfile
from repro.sim.kernel import Environment, Event, Process
from repro.sim.machine import Machine
from repro.sim.primitives import Resource

if TYPE_CHECKING:  # avoid a runtime model -> core import cycle
    from repro.core.multiplexer import SimResourceMultiplexer
    from repro.obs.trace import InvocationTracer


class ContainerState(enum.Enum):
    """Container lifecycle states."""

    CREATED = "created"
    STARTING = "starting"
    WARM = "warm"         # started and idle
    ACTIVE = "active"     # executing at least one invocation
    STOPPED = "stopped"
    CRASHED = "crashed"   # killed by a fault; in-flight work was aborted


#: The states in which a container is up (``is_warm``).  A tuple, not a
#: frozenset: membership tests identity first, and hashing an enum member
#: is a Python-level call.
WARM_STATES = (ContainerState.WARM, ContainerState.ACTIVE)

#: Extra per-container memory for a function's code and deps (MB).
CODE_MEMORY_MB = 0.0
#: CPU cores the customer's resource limit grants a container (docker
#: ``cpu_count`` / ``cpuset_cpus`` in §III-C); None leaves it uncapped.
CPU_LIMIT: Optional[float] = None


class SimContainer:
    """One container instance on the worker machine."""

    def __init__(self,
                 env: Environment,
                 machine: Machine,
                 container_id: str,
                 function: FunctionSpec,
                 calibration: Calibration,
                 concurrency_limit: Optional[int] = None,
                 multiplexer: Optional["SimResourceMultiplexer"] = None,
                 tracer: Optional["InvocationTracer"] = None) -> None:
        """Failures are isolated, as on real platforms: a handler exception
        fails *that invocation* (an error response to the caller) without
        crashing the container or the rest of the batch.  ``tracer``
        (optional) receives the execution-stage span boundaries of every
        invocation served."""
        if concurrency_limit is not None and concurrency_limit < 1:
            raise ValueError(
                f"concurrency_limit must be >= 1 or None, got {concurrency_limit}")
        self.env = env
        self.machine = machine
        self.container_id = container_id
        self.function = function
        self.calibration = calibration
        self.multiplexer = multiplexer
        self.tracer = tracer
        self.invocations_failed = 0
        self.state = ContainerState.CREATED
        self.cold_start_ms: Optional[float] = None
        self.invocations_served = 0
        self.clients_created = 0
        self.active_invocations = 0
        self._group_name = f"cgroup:{container_id}"
        self._memory_owner = f"container:{container_id}"
        self._client_memory_owner = f"clients:{container_id}"
        self._creations_in_flight = 0
        self._sdk_imported = False
        self._cost_model = StorageClientCostModel.from_calibration(calibration)
        self._executor: Optional[Resource] = None
        if concurrency_limit is not None:
            self._executor = Resource(env, capacity=concurrency_limit)
        #: Live invocation processes by invocation id — the handles the
        #: fault layer uses to crash them.
        self._inflight: Dict[str, Process] = {}
        #: Called once the container is gone for good — after ``stop`` or
        #: after a crash's teardown — so its owner can fold its counts.
        self.on_retired: Optional[Callable[["SimContainer"], None]] = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self):
        """Cold-start generator: run with ``env.process`` and yield the Process.

        Allocates the container's resident memory, creates its CPU group,
        performs the docker create/start CPU work on the *host's* share
        (contending with everything else) and then waits out the fixed
        provisioning latency.  Returns the measured cold-start duration.
        """
        if self.state is not ContainerState.CREATED:
            raise ContainerStateError(
                f"{self.container_id} cannot start from {self.state}")
        self.state = ContainerState.STARTING
        began = self.env.now
        self.machine.memory.allocate(
            self._memory_owner,
            self.calibration.container_memory_mb + CODE_MEMORY_MB)
        self.machine.cpu.create_group(self._group_name, cap=CPU_LIMIT)
        if self.calibration.cold_start_cpu_work_ms > 0:
            yield self.machine.cpu.submit(
                self.calibration.cold_start_cpu_work_ms,
                group=self.machine.cpu.HOST_GROUP)
        if self.calibration.cold_start_latency_ms > 0:
            yield self.env.timeout(self.calibration.cold_start_latency_ms)
        self.cold_start_ms = self.env.now - began
        self.state = ContainerState.WARM
        return self.cold_start_ms

    def stop(self) -> None:
        """Tear the container down, releasing memory and its CPU group."""
        if self.state is ContainerState.STOPPED:
            raise ContainerStateError(f"{self.container_id} already stopped")
        if self.state is ContainerState.CRASHED:
            raise ContainerStateError(
                f"{self.container_id} crashed; teardown already ran")
        if self.active_invocations:
            raise ContainerStateError(
                f"{self.container_id} has {self.active_invocations} "
                "active invocations")
        if self.state in (ContainerState.WARM, ContainerState.ACTIVE):
            self.machine.cpu.remove_group(self._group_name)
            self.machine.memory.free(self._memory_owner)
            if self.machine.memory.held_by(self._client_memory_owner):
                self.machine.memory.free(self._client_memory_owner)
        elif self.state is ContainerState.STARTING:
            raise ContainerStateError(
                f"{self.container_id} cannot stop while starting")
        self.state = ContainerState.STOPPED
        if self.on_retired is not None:
            self.on_retired(self)

    @property
    def is_idle(self) -> bool:
        return self.state is ContainerState.WARM and not self.active_invocations

    @property
    def is_warm(self) -> bool:
        return self.state in WARM_STATES

    @property
    def client_memory_mb(self) -> float:
        """Resident memory of this container's live client instances."""
        return self.machine.memory.held_by(self._client_memory_owner)

    @property
    def cpu_group_name(self) -> str:
        """The container's CPU cgroup (the straggler fault's cap target)."""
        return self._group_name

    @property
    def resident_memory_mb(self) -> float:
        """Container + client memory currently charged to this container."""
        return (self.machine.memory.held_by(self._memory_owner)
                + self.machine.memory.held_by(self._client_memory_owner))

    # -- fault hooks -------------------------------------------------------------

    def crash(self, error: BaseException) -> int:
        """Kill this container mid-flight, aborting all in-flight invocations.

        Every live invocation process is interrupted with *error* (their
        handlers mark the invocations failed, freeing per-invocation memory
        on the way out), then a same-instant teardown process reclaims the
        container's CPU group and memory.  Interrupts are delivered before
        the teardown runs — both are urgent events enqueued in order — so
        teardown never races the unwinding invocations.  Returns the number
        of invocations aborted.
        """
        if self.state not in (ContainerState.WARM, ContainerState.ACTIVE):
            raise ContainerStateError(
                f"{self.container_id} cannot crash from {self.state}")
        self.state = ContainerState.CRASHED
        victims = [process for process in self._inflight.values()
                   if process.is_alive]
        for process in victims:
            process.interrupt(error)
        self.env.process(self._teardown_after_crash(),
                         name=f"crash:{self.container_id}")
        return len(victims)

    def _teardown_after_crash(self):
        yield self.env.timeout(0.0)
        if self.machine.cpu.has_group(self._group_name):
            self.machine.cpu.abort_group_tasks(self._group_name)
            self.machine.cpu.remove_group(self._group_name)
        if self.machine.memory.held_by(self._memory_owner):
            self.machine.memory.free(self._memory_owner)
        if self.machine.memory.held_by(self._client_memory_owner):
            self.machine.memory.free(self._client_memory_owner)
        if self.on_retired is not None:
            self.on_retired(self)

    # -- execution -------------------------------------------------------------------

    def execute_batch(self, invocations: List[Invocation]) -> Event:
        """Run *invocations* inside this container; event fires when all done.

        Mirrors §III-C step 3: the producer's HTTP request returns only after
        every invocation of the function group has completed.  Each
        invocation runs as its own in-container task; the concurrency limit
        (if any) gates how many execute at once, and waiting for a slot is
        accounted as *queuing latency*.
        """
        if self.state not in (ContainerState.WARM, ContainerState.ACTIVE):
            raise ContainerStateError(
                f"{self.container_id} cannot execute in state {self.state}")
        return self.env.all_of(self.execute_invocations(invocations))

    def execute_invocations(self, invocations: List[Invocation]):
        """Spawn one in-container task per invocation; returns the processes.

        Each returned :class:`~repro.sim.kernel.Process` triggers when its
        invocation finishes — the hook the early-return extension uses to
        respond to callers before the whole group has drained.
        """
        if self.state not in (ContainerState.WARM, ContainerState.ACTIVE):
            raise ContainerStateError(
                f"{self.container_id} cannot execute in state {self.state}")
        if not invocations:
            raise ValueError("empty batch")
        for invocation in invocations:
            if invocation.function.function_id != self.function.function_id:
                raise ContainerStateError(
                    f"{invocation.invocation_id} is for "
                    f"{invocation.function.function_id}, container runs "
                    f"{self.function.function_id}")
        if len(invocations) == 1:
            invocation = invocations[0]
            process = self.env.process(self._run_invocation(invocation),
                                       name=f"exec:{invocation.trace_id}")
            self._inflight[invocation.invocation_id] = process
            return [process]
        # Batch-arrival fast path: the whole batch expansion starts via one
        # bulk append of start events (order-identical to per-invocation
        # ``env.process`` calls).
        processes = self.env.process_batch(
            [self._run_invocation(invocation) for invocation in invocations],
            names=[f"exec:{invocation.trace_id}" for invocation in invocations])
        inflight = self._inflight
        for invocation, process in zip(invocations, processes):
            inflight[invocation.invocation_id] = process
        return processes

    def _run_invocation(self, invocation: Invocation):
        self.state = ContainerState.ACTIVE
        self.active_invocations += 1
        slot = None
        try:
            if self._executor is not None:
                slot = self._executor.request()
                yield slot
            invocation.mark_execution_start(self.env.now)
            invocation.container_id = self.container_id
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.execution_started(
                    invocation.trace_id, self.env.now,
                    self.container_id)
            self.machine.memory.allocate(
                self._memory_owner, self.calibration.invocation_memory_mb)
            try:
                profile = invocation.function.build_profile(invocation.payload)
                yield from self._run_profile(profile)
            finally:
                self.machine.memory.free(
                    self._memory_owner, self.calibration.invocation_memory_mb)
            invocation.mark_completed(self.env.now)
            self.invocations_served += 1
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.execution_completed(
                    invocation.trace_id, self.env.now)
        except BaseException as error:
            # A crash's interrupt arrives wrapped; the invocation's
            # recorded error is the underlying cause.
            cause: BaseException = error
            if isinstance(error, ProcessInterrupted) \
                    and isinstance(error.cause, BaseException):
                cause = error.cause
            invocation.mark_failed(self.env.now, cause)
            self.invocations_failed += 1
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.execution_failed(
                    invocation.trace_id, self.env.now, cause)
        finally:
            self._inflight.pop(invocation.invocation_id, None)
            if slot is not None:
                if slot.triggered:
                    slot.release()
                else:
                    # Interrupted while waiting for the execution slot.
                    assert self._executor is not None
                    self._executor.cancel(slot)
            self.active_invocations -= 1
            if self.active_invocations == 0 and \
                    self.state is ContainerState.ACTIVE:
                self.state = ContainerState.WARM

    def _run_profile(self, profile: WorkProfile):
        if self.calibration.invocation_overhead_work_ms > 0:
            yield self.machine.cpu.submit(
                self.calibration.invocation_overhead_work_ms,
                group=self._group_name)
        for segment in profile:
            if isinstance(segment, CpuWork):
                if segment.core_ms > 0:
                    yield self.machine.cpu.submit(
                        segment.core_ms, group=self._group_name)
            elif isinstance(segment, IoWait):
                if segment.wait_ms > 0:
                    yield self.env.timeout(segment.wait_ms)
            elif isinstance(segment, ClientCreation):
                yield from self._run_client_creation(segment)
            else:  # pragma: no cover - profile validated at construction
                raise TypeError(f"unknown segment {segment!r}")

    # -- client creation (the multiplexer integration point) ------------------------

    def _run_client_creation(self, segment: ClientCreation):
        if self.multiplexer is None:
            yield from self._build_client(segment)
            return
        lookup = self.multiplexer.lookup(segment.factory, segment.args_hash)
        if lookup.ready_event is not None:   # IN_FLIGHT: share the build
            yield lookup.ready_event
            yield self.env.timeout(self.calibration.multiplexer_hit_ms)
            return
        if lookup.instance is not None:          # HIT
            yield self.env.timeout(self.calibration.multiplexer_hit_ms)
            return
        # MISS: build and publish.  The cache-entry overhead is charged once.
        try:
            instance = yield from self._build_client(segment)
        except BaseException as error:
            self.multiplexer.abort(lookup.key, error)
            raise
        self.machine.memory.allocate(self._client_memory_owner,
                                     self.calibration.multiplexer_entry_mb)
        self.multiplexer.commit(lookup.key, instance)

    def _build_client(self, segment: ClientCreation):
        """Construct one storage client, paying the contended creation cost.

        The first creation in a fresh container also pays the SDK import
        (a cold Python process has not loaded boto3/azure-storage yet).
        """
        self._creations_in_flight += 1
        concurrent = self._creations_in_flight
        work = self._cost_model.creation_work_ms(concurrent)
        if not self._sdk_imported:
            self._sdk_imported = True
            work += self.calibration.sdk_import_work_ms
        try:
            yield self.machine.cpu.submit(work, group=self._group_name)
        finally:
            self._creations_in_flight -= 1
        self.machine.memory.allocate(self._client_memory_owner,
                                     self._cost_model.client_memory_mb)
        self.clients_created += 1
        return ClientInstance(
            factory=segment.factory, args_hash=segment.args_hash,
            created_at_ms=self.env.now,
            memory_mb=self._cost_model.client_memory_mb)

    def __repr__(self) -> str:
        return (f"<SimContainer {self.container_id} fn="
                f"{self.function.function_id} {self.state.value} "
                f"active={self.active_invocations}>")
