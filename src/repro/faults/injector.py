"""Executes a :class:`~repro.faults.plan.FaultPlan` against the platform.

The injector installs itself on a :class:`ServerlessPlatform` and is
consulted at three hook points — container start, cold-start completion,
invocation dispatch — plus a memory-usage hook for OOM kills.  All hooks
are pure function calls guarded by ``platform.faults is not None``; with no
injector installed the platform's behaviour is bit-identical to a build
without this package.

Determinism: ordinals are counted in event order and the only randomness is
the plan's seeded RNG (currently unused by the built-in faults, reserved
for probabilistic extensions), so the same plan replays the same faults.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, TYPE_CHECKING

from repro.common.errors import (
    ContainerCrashed,
    OomKilled,
    TransientDispatchError,
)
from repro.faults.plan import (
    ContainerCrashFault,
    FaultPlan,
    OomKillFault,
    StragglerFault,
)
from repro.model.container import ContainerState, SimContainer
from repro.model.function import FunctionSpec, Invocation

if TYPE_CHECKING:  # runtime import would cycle through platformsim
    from repro.platformsim.platform import ServerlessPlatform


class FaultInjector:
    """Deterministic executor of one :class:`FaultPlan` (one per run)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.platform: Optional["ServerlessPlatform"] = None
        # Ordinal counters, overall and per function.
        self._containers_started = 0
        self._containers_started_by_fn: Dict[str, int] = {}
        self._cold_starts = 0
        self._cold_starts_by_fn: Dict[str, int] = {}
        self._dispatches = 0
        self._dispatches_by_fn: Dict[str, int] = {}
        # Outcome counters (chaos reports assert on these).
        self.crashes_fired = 0
        self.crashes_skipped = 0
        self.cold_start_failures_fired = 0
        self.stragglers_fired = 0
        self.dispatch_errors_fired = 0
        self.oom_kills_fired = 0
        self._oom_armed = True
        self._oom_pending = False

    def install(self, platform: "ServerlessPlatform") -> "FaultInjector":
        """Attach to *platform*; hooks fire from this moment on."""
        if self.platform is not None:
            raise RuntimeError("injector already installed")
        self.platform = platform
        platform.faults = self
        if self.plan.oom_kills:
            # The hook is only registered when the plan can use it, keeping
            # the memory hot path untouched for every other plan.
            platform.machine.memory.add_usage_hook(self._on_memory_usage)
        return self

    # -- hook: container started ---------------------------------------------------

    def _matches(self, fault, overall: int, per_fn: int) -> bool:
        if fault.function_id is None:
            return fault.ordinal == overall
        return fault.ordinal == per_fn

    def on_container_started(self, container: SimContainer) -> None:
        """Platform hook: a cold start just completed successfully."""
        assert self.platform is not None
        function_id = container.function.function_id
        self._containers_started += 1
        per_fn = self._containers_started_by_fn.get(function_id, 0) + 1
        self._containers_started_by_fn[function_id] = per_fn
        for crash in self.plan.crashes:
            if crash.function_id not in (None, function_id):
                continue
            if self._matches(crash, self._containers_started, per_fn):
                self.platform.env.process(
                    self._crash_later(container, crash),
                    name=f"fault-crash:{container.container_id}")
        for straggler in self.plan.stragglers:
            if straggler.function_id not in (None, function_id):
                continue
            if self._matches(straggler, self._containers_started, per_fn):
                self.platform.env.process(
                    self._slow_later(container, straggler),
                    name=f"fault-straggle:{container.container_id}")

    def _crash_later(self, container: SimContainer,
                     fault: ContainerCrashFault):
        assert self.platform is not None
        yield self.platform.env.timeout(fault.after_start_ms)
        now = self.platform.env.now
        if container.state not in (ContainerState.WARM,
                                   ContainerState.ACTIVE):
            self.crashes_skipped += 1
            if self.platform.obs.tracer.enabled:
                self.platform.obs.tracer.annotation(
                    "fault-crash-skipped", now,
                    container_id=container.container_id,
                    state=container.state.value)
            return
        error = ContainerCrashed(
            f"injected crash of {container.container_id}")
        victims = container.crash(error)
        self.crashes_fired += 1
        self.platform.obs.metrics.counter("faults.crashes").inc()
        tracer = self.platform.obs.tracer
        if tracer.enabled:
            tracer.annotation(
                "fault-container-crashed", now,
                container_id=container.container_id, victims=victims)
            tracer.container_event(
                container.container_id, "crashed", now, victims=victims)

    def _slow_later(self, container: SimContainer, fault: StragglerFault):
        assert self.platform is not None
        env = self.platform.env
        cpu = self.platform.machine.cpu
        yield env.timeout(fault.after_start_ms)
        group = container.cpu_group_name
        if not cpu.has_group(group):
            return  # container already gone
        original_cap = container.function.cpu_limit
        full = original_cap if original_cap is not None \
            else float(self.platform.machine.cores)
        throttled = max(full * fault.cpu_scale, 1e-6)
        cpu.set_group_cap(group, throttled)
        self.stragglers_fired += 1
        self.platform.obs.metrics.counter("faults.stragglers").inc()
        tracer = self.platform.obs.tracer
        if tracer.enabled:
            tracer.annotation(
                "fault-straggler-began", env.now,
                container_id=container.container_id,
                cap=throttled, duration_ms=fault.duration_ms)
            tracer.container_event(
                container.container_id, "straggler-began", env.now,
                cap=throttled)
        yield env.timeout(fault.duration_ms)
        if cpu.has_group(group):  # it may have crashed/expired meanwhile
            cpu.set_group_cap(group, original_cap)
            if tracer.enabled:
                tracer.annotation(
                    "fault-straggler-ended", env.now,
                    container_id=container.container_id)
                tracer.container_event(
                    container.container_id, "straggler-ended", env.now)

    # -- hook: cold start completed --------------------------------------------------

    def take_cold_start_fault(self, function: FunctionSpec) -> bool:
        """Platform hook: should this (latency-paid) cold start fail?"""
        assert self.platform is not None
        function_id = function.function_id
        self._cold_starts += 1
        per_fn = self._cold_starts_by_fn.get(function_id, 0) + 1
        self._cold_starts_by_fn[function_id] = per_fn
        for fault in self.plan.cold_start_failures:
            if fault.function_id not in (None, function_id):
                continue
            if self._matches(fault, self._cold_starts, per_fn):
                self.cold_start_failures_fired += 1
                now = self.platform.env.now
                self.platform.obs.metrics.counter(
                    "faults.cold_start_failures").inc()
                if self.platform.obs.tracer.enabled:
                    self.platform.obs.tracer.annotation(
                        "fault-cold-start-failed", now,
                        function_id=function_id, ordinal=fault.ordinal)
                return True
        return False

    # -- hook: dispatch ---------------------------------------------------------------

    def take_dispatch_fault(self, invocation: Invocation
                            ) -> Optional[TransientDispatchError]:
        """Platform hook: fail this dispatch with a transient error?"""
        assert self.platform is not None
        function_id = invocation.function.function_id
        self._dispatches += 1
        per_fn = self._dispatches_by_fn.get(function_id, 0) + 1
        self._dispatches_by_fn[function_id] = per_fn
        for fault in self.plan.dispatch_errors:
            if fault.function_id not in (None, function_id):
                continue
            if self._matches(fault, self._dispatches, per_fn):
                self.dispatch_errors_fired += 1
                now = self.platform.env.now
                self.platform.obs.metrics.counter(
                    "faults.dispatch_errors").inc()
                if self.platform.obs.tracer.enabled:
                    self.platform.obs.tracer.annotation(
                        "fault-dispatch-error", now,
                        invocation_id=invocation.invocation_id,
                        ordinal=fault.ordinal)
                return TransientDispatchError(
                    f"injected dispatch failure for "
                    f"{invocation.invocation_id}")
        return None

    # -- hook: memory usage (OOM) -----------------------------------------------------

    def _active_oom_fault(self) -> Optional[OomKillFault]:
        remaining = self.oom_kills_fired
        for fault in self.plan.oom_kills:
            if remaining < fault.max_kills:
                return fault
            remaining -= fault.max_kills
        return None

    def _on_memory_usage(self, used_mb: float) -> None:
        fault = self._active_oom_fault()
        if fault is None:
            return
        if used_mb < fault.threshold_mb:
            self._oom_armed = True  # hysteresis: re-arm below threshold
            return
        if not self._oom_armed or self._oom_pending:
            return
        # Memory hooks must not free synchronously; kill on a zero-delay
        # process so the triggering allocation completes first.
        self._oom_pending = True
        assert self.platform is not None
        self.platform.env.process(self._oom_kill(fault), name="fault-oom")

    def _oom_kill(self, fault: OomKillFault):
        assert self.platform is not None
        env = self.platform.env
        yield env.timeout(0.0)
        self._oom_pending = False
        memory = self.platform.machine.memory
        if memory.used_mb < fault.threshold_mb:
            return  # usage dropped before the kill landed
        candidates = self.platform.docker.containers.list()
        if not candidates:
            return
        # Deterministic victim: the fattest container, ties by id.
        victim = min(candidates,
                     key=lambda c: (-c.resident_memory_mb, c.container_id))
        victims = victim.crash(OomKilled(
            f"oom-killed {victim.container_id} at "
            f"{memory.used_mb:.1f}/{fault.threshold_mb:.1f} MB"))
        self.oom_kills_fired += 1
        self._oom_armed = False
        self.platform.obs.metrics.counter("faults.oom_kills").inc()
        tracer = self.platform.obs.tracer
        if tracer.enabled:
            tracer.annotation(
                "fault-oom-kill", env.now,
                container_id=victim.container_id, victims=victims,
                used_mb=memory.used_mb, threshold_mb=fault.threshold_mb)
            tracer.container_event(
                victim.container_id, "oom-killed", env.now, victims=victims)
