"""Warm container pool with keep-alive reclamation.

Serverless platforms keep finished containers alive for a while so that
subsequent invocations of the same function warm-start (§I).  The pool:

* hands out an idle warm container for a function when one exists
  (*warm start*), else the caller cold-starts a new one;
* receives containers back after execution and schedules their expiry
  ``keep_alive_ms`` later — cancelled if the container is re-acquired first;
* tracks the *provisioned containers* count (every container ever started),
  the metric of Figs. 13(b)/14(b);
* publishes its accounting into an optional
  :class:`~repro.obs.metrics.MetricsRegistry` (``pool.*`` namespace).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Dict, List, Optional

from repro.common.errors import ContainerStateError
from repro.model.container import ContainerState, SimContainer
from repro.obs.metrics import LazyMetrics, MetricsRegistry
from repro.sim.kernel import Environment


class ContainerPool:
    """Keep-alive pool of warm containers, keyed by function id."""

    def __init__(self, env: Environment, keep_alive_ms: float,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if keep_alive_ms <= 0:
            raise ValueError(f"keep_alive_ms must be > 0, got {keep_alive_ms}")
        self.env = env
        self.keep_alive_ms = keep_alive_ms
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._idle: DefaultDict[str, List[SimContainer]] = defaultdict(list)
        #: Expiry epoch per container id; bumping it cancels pending expiry.
        self._lease_version: Dict[str, int] = {}
        self.provisioned_total = 0
        self.warm_hits = 0
        self.cold_misses = 0
        self.expired_total = 0
        #: Containers found non-idle on the idle list (stopped out of band);
        #: they are retired with full accounting instead of silently leaking.
        self.stale_evictions = 0
        #: Crashed/stopped containers refused at release() instead of being
        #: re-parked — without this a crashed container re-enters the idle
        #: list and is handed out as a "warm" container later.
        self.rejected_releases = 0
        self._on_expire: Optional[Callable[[SimContainer], None]] = None
        # Metric handles, created on first publish so the registry snapshot
        # only ever contains metrics that actually fired (pre-creating them
        # would add zero-valued rows to pinned digests).
        self._m = LazyMetrics(
            self.metrics,
            warm_hits=("counter", "pool.warm_hits"),
            cold_misses=("counter", "pool.cold_misses"),
            provisioned=("counter", "pool.provisioned"),
            releases=("counter", "pool.releases"),
            rejected_releases=("counter", "pool.rejected_releases"),
            stale_evictions=("counter", "pool.stale_evictions"),
            expired=("counter", "pool.expired"),
            idle=("gauge", "pool.idle"))

    # -- acquisition ------------------------------------------------------------

    def acquire(self, function_id: str) -> Optional[SimContainer]:
        """Take an idle warm container for *function_id*, or None (cold)."""
        idle = self._idle.get(function_id)
        while idle:
            container = idle.pop()
            # Containers in the idle list are warm by construction; guard
            # against out-of-band stops anyway.
            if container.is_idle:
                self._bump(container)
                self.warm_hits += 1
                self._m.warm_hits.inc()
                self._publish_idle_gauge()
                return container
            self._evict_stale(container)
        self.cold_misses += 1
        self._m.cold_misses.inc()
        return None

    def register_started(self, container: SimContainer) -> None:
        """Count a freshly cold-started container as provisioned."""
        self.provisioned_total += 1
        self._m.provisioned.inc()
        self._bump(container)

    def release(self, container: SimContainer) -> bool:
        """Return *container* to the pool and arm its keep-alive expiry.

        A container that died out-of-band (crashed by a fault, or stopped)
        is *rejected*: it must not re-enter the idle list, where it would be
        handed out as a warm container later.  Rejections are counted and
        return False; releasing a container with live work is still a
        programming error and raises.
        """
        if not container.is_idle:
            if container.state in (ContainerState.STOPPED,
                                   ContainerState.CRASHED) \
                    and not container.active_invocations:
                self._bump(container)  # stand down any pending expiry
                self.rejected_releases += 1
                self._m.rejected_releases.inc()
                return False
            raise ContainerStateError(
                f"{container.container_id} returned to pool while not idle")
        self._idle[container.function.function_id].append(container)
        version = self._bump(container)
        self._m.releases.inc()
        self._publish_idle_gauge()
        self.env.process(self._expire_later(container, version),
                         name=f"expire:{container.container_id}")
        return True

    def set_expiry_callback(
            self, callback: Optional[Callable[[SimContainer], None]]) -> None:
        """Invoke *callback* whenever a container is reclaimed."""
        self._on_expire = callback

    # -- introspection ----------------------------------------------------------

    def idle_count(self, function_id: Optional[str] = None) -> int:
        if function_id is not None:
            return len(self._idle.get(function_id, []))
        return sum(len(v) for v in self._idle.values())

    def drain(self) -> List[SimContainer]:
        """Stop and remove every idle container (end-of-run cleanup)."""
        drained: List[SimContainer] = []
        for function_id in list(self._idle):
            for container in self._idle.pop(function_id):
                self._bump(container)
                if container.state not in (ContainerState.STOPPED,
                                           ContainerState.CRASHED):
                    container.stop()
                drained.append(container)
        self._publish_idle_gauge()
        return drained

    # -- internals ----------------------------------------------------------------

    def _bump(self, container: SimContainer) -> int:
        version = self._lease_version.get(container.container_id, 0) + 1
        self._lease_version[container.container_id] = version
        return version

    def _evict_stale(self, container: SimContainer) -> None:
        """Retire a container found non-idle on the idle list.

        Such a container was stopped (or re-activated) out of band while
        parked.  It must leave the pool's accounting cleanly: bump its lease
        so any pending expiry process stands down, stop it if it is still
        stoppable, and count the eviction — dropping it silently would leak
        it from every metric (the pre-fix behaviour).
        """
        self._bump(container)
        if container.state not in (ContainerState.STOPPED,
                                   ContainerState.CRASHED) \
                and not container.active_invocations \
                and container.state is not ContainerState.STARTING:
            container.stop()
        self.stale_evictions += 1
        self._m.stale_evictions.inc()
        self._publish_idle_gauge()

    def _publish_idle_gauge(self) -> None:
        self._m.idle.value = self.idle_count()

    def _expire_later(self, container: SimContainer, version: int):
        yield self.env.timeout(self.keep_alive_ms)
        if self._lease_version.get(container.container_id) != version:
            return  # re-acquired (or drained) in the meantime
        idle = self._idle.get(container.function.function_id, [])
        if container in idle:
            idle.remove(container)
            if container.state is ContainerState.CRASHED:
                # Crashed while parked: teardown already ran, just retire it
                # from the pool's books.
                self.stale_evictions += 1
                self._m.stale_evictions.inc()
                self._publish_idle_gauge()
                return
            container.stop()
            self.expired_total += 1
            self._m.expired.inc()
            self._publish_idle_gauge()
            if self._on_expire is not None:
                self._on_expire(container)
