"""A docker-py-shaped facade over the simulated container runtime.

The paper's prototype drives containers through docker-py
(``client.containers.run(..., cpu_count=..., cpuset_cpus=...)``, §III-C).
:class:`SimDockerClient` mirrors that surface so scheduler code reads like
the original prototype and so tests can assert on the docker-level view
(list, get, stop) independent of the scheduling layer.

Only the parts of the docker-py API that the paper's system touches are
implemented; anything else raises ``AttributeError`` naturally.  Containers
behave as if started with ``--rm``: once one stops (or its crash teardown
ends) the daemon forgets it, folding what results read into running totals,
so a long run holds only the containers that are still up.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.common.errors import ContainerNotFound
from repro.common.ids import IdFactory
from repro.model.calibration import Calibration
from repro.model.container import WARM_STATES, ContainerState, SimContainer
from repro.model.function import FunctionSpec
from repro.obs.metrics import LazyMetrics
from repro.sim.kernel import Environment, Process
from repro.sim.machine import Machine

if TYPE_CHECKING:
    from repro.core.multiplexer import SimResourceMultiplexer
    from repro.obs import Observability


class ContainerHandle:
    """The docker-py ``Container``-like object returned by ``run``."""

    def __init__(self, container: SimContainer, start_process: Process) -> None:
        self._container = container
        #: Process performing the cold start; yield it to await readiness.
        self.started = start_process

    @property
    def id(self) -> str:
        return self._container.container_id

    @property
    def status(self) -> str:
        """docker-like status string."""
        mapping = {
            ContainerState.CREATED: "created",
            ContainerState.STARTING: "created",
            ContainerState.WARM: "running",
            ContainerState.ACTIVE: "running",
            ContainerState.STOPPED: "exited",
            ContainerState.CRASHED: "dead",
        }
        return mapping[self._container.state]

    @property
    def sim(self) -> SimContainer:
        """Escape hatch to the underlying simulated container."""
        return self._container

    def stop(self) -> None:
        self._container.stop()

    def __repr__(self) -> str:
        return f"<ContainerHandle {self.id} {self.status}>"


class _ContainerCollection:
    """Mirror of ``docker.client.containers``."""

    def __init__(self, client: "SimDockerClient") -> None:
        self._client = client

    def run(self, function: FunctionSpec,
            concurrency_limit: Optional[int] = None,
            multiplexer: Optional["SimResourceMultiplexer"] = None,
            ) -> ContainerHandle:
        """Create and start a container for *function* (detached).

        The returned handle's ``started`` process completes when the cold
        start finishes; schedulers yield it before dispatching work.
        ``function.cpu_limit`` plays the role of docker's ``cpu_count``.
        """
        client = self._client
        container = SimContainer(
            env=client.env,
            machine=client.machine,
            container_id=client.ids.next("container"),
            function=function,
            calibration=client.calibration,
            concurrency_limit=concurrency_limit,
            multiplexer=multiplexer,
            tracer=client.obs.tracer if client.obs is not None else None)
        start = client.env.process(container.start(),
                                   name=f"start:{container.container_id}")
        client._register(container)
        if client.obs is not None:
            client._m.created.inc()
            if multiplexer is not None:
                client._m.multiplexed.inc()
        return ContainerHandle(container, start)

    def get(self, container_id: str) -> ContainerHandle:
        container = self._client._containers.get(container_id)
        if container is None:
            raise ContainerNotFound(container_id)
        return ContainerHandle(container, start_process=None)  # type: ignore[arg-type]

    def list(self, all: bool = False) -> List[SimContainer]:  # noqa: A002 - docker API
        """Running containers; ``all=True`` adds those still starting."""
        containers = self._client._containers.values()
        if all:
            return list(containers)
        return [c for c in containers if c.state in WARM_STATES]


def _fold(totals: Tuple[int, int, int],
          containers: Iterable[SimContainer]) -> Tuple[int, int, int]:
    clients, reuses, misses = totals
    for container in containers:
        clients += container.clients_created
        if container.multiplexer is not None:
            stats = container.multiplexer.stats
            reuses += stats.hits + stats.in_flight_waits
            misses += stats.misses
    return clients, reuses, misses


class SimDockerClient:
    """Simulated docker daemon for one worker machine."""

    def __init__(self, env: Environment, machine: Machine,
                 calibration: Calibration,
                 ids: Optional[IdFactory] = None,
                 obs: Optional["Observability"] = None) -> None:
        self.env = env
        self.machine = machine
        self.calibration = calibration
        self.ids = ids if ids is not None else IdFactory()
        self.obs = obs
        #: Containers not yet stopped or torn down, by id.
        self._containers: Dict[str, SimContainer] = {}
        self._started = 0
        self._retired = (0, 0, 0)  # totals() of the forgotten containers
        if obs is not None:  # handles created on first publish (see the pool)
            self._m = LazyMetrics(
                obs.metrics,
                created=("counter", "docker.containers_created"),
                multiplexed=("counter", "docker.multiplexed_containers"))

    def _register(self, container: SimContainer) -> None:
        self._containers[container.container_id] = container
        container.on_retired = self._retire
        self._started += 1

    def _retire(self, container: SimContainer) -> None:
        """Fold a stopped or torn-down container's counts, then forget it."""
        del self._containers[container.container_id]
        self._retired = _fold(self._retired, [container])

    @property
    def containers(self) -> _ContainerCollection:
        """``docker.client.containers``; built per use, since it refers
        back to this client."""
        return _ContainerCollection(self)

    def dismantle(self) -> None:
        """Cut each live container's callback into this client (a cycle)."""
        for container in self._containers.values():
            container.on_retired = None

    def started_count(self) -> int:
        """How many containers were ever created on this daemon."""
        return self._started

    def totals(self) -> Tuple[int, int, int]:
        """``(clients created, multiplexer hits + in-flight waits, misses)``
        over every container ever started."""
        return _fold(self._retired, self._containers.values())

    def running_count(self) -> int:
        return len([c for c in self._containers.values()
                    if c.state in WARM_STATES])

    def busy_count(self) -> int:
        """Running containers executing at least one invocation."""
        return len([c for c in self._containers.values()
                    if c.active_invocations and c.state in WARM_STATES])
