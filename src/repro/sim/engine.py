"""CPU-engine substrate shared by every CPU scheduling discipline.

A worker machine's CPU is modeled by a *CPU engine*: a service that accepts
units of work (:class:`CpuTask`) grouped into container cgroups
(:class:`CpuGroup`) and decides how fast each one runs.  The repo ships
two engines with one interface (:class:`CpuEngine`):

* :class:`repro.sim.fair_share.FairShareCpu` — two-level max-min fair
  processor sharing on per-group service clocks (the default).
* :class:`repro.sim.sfs_cpu.SfsCpu` — the SFS user-space discipline
  (per-core adaptive time slices).

:class:`CpuEngineBase` holds the scaffolding every engine repeats —
group bookkeeping, validation, utilization accounting — so concrete
engines only implement their scheduling policy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.common.errors import SimulationError
from repro.common.units import TIME_EPSILON
from repro.sim.kernel import Environment, Event


class CpuTask:
    """One thread of computation being serviced by the CPU.

    A task uses at most one core.  It carries no remaining-work or rate
    field: its group's service clock and finish-tag heap do (see
    :class:`CpuGroup`).
    """

    __slots__ = ("group", "done", "started_at", "seq")

    def __init__(self, group: "CpuGroup", done: Event,
                 started_at: float, seq: int) -> None:
        self.group = group
        self.done = done
        self.started_at = started_at
        #: Global submission rank: same-instant completions fire in this
        #: order no matter which group's heap they came off.
        self.seq = seq


class CpuGroup:
    """A set of tasks sharing a cap (a container, or the uncapped host).

    The fair-share engine runs one **service clock** per group: every
    member is one thread and they all run at one ``rate``, so ``served`` —
    the work delivered to each member since the group last became runnable
    — advances for all of them at once and the earliest finisher is the
    top of ``heap``, a min-heap of ``(finish tag, submission rank, task)``.
    Other engines never read these fields.
    """

    __slots__ = ("name", "cap", "tasks", "_seq", "size", "demand",
                 "full_rate", "served", "rate", "heap")

    def __init__(self, name: str, cap: Optional[float]) -> None:
        if cap is not None and cap <= 0:
            raise ValueError(f"group cap must be > 0, got {cap}")
        self.name = name
        self.cap = cap  # None = unbounded (host group)
        # Insertion-ordered on purpose: CpuTask hashes by identity, so a
        # set's iteration order would vary run-to-run and leak into float
        # accumulation and same-instant completion order (nondeterminism).
        self.tasks: Dict[CpuTask, None] = {}
        #: Creation rank within the owning engine: runnable groups are
        #: visited in creation order (the group-level waterfill's float
        #: results are order-sensitive).
        self._seq = 0
        #: Task count, aggregate core demand bounded by ``cap``, and the
        #: member rate when all of that is granted; kept current by the
        #: fair-share engine on every membership change.
        self.size = 0
        self.demand = 0.0
        self.full_rate = 0.0
        self.served = 0.0
        self.rate = 0.0
        self.heap: List[Tuple[float, int, CpuTask]] = []

    def __repr__(self) -> str:
        return f"<CpuGroup {self.name} cap={self.cap} tasks={len(self.tasks)}>"


def water_level(capacity: float,
                demands: List[float]) -> Tuple[float, float]:
    """Max-min fair allocation of *capacity* across capped entities.

    Entity ``i`` receives ``demands[i]`` when ``demands[i] <= bound`` and
    ``level`` otherwise (demands are non-negative).  These are progressive
    filling's numbers, bit for bit: each round is one ``bisect_right`` of
    the equal share over the sorted demands, and the demands it bounds are
    subtracted from what remains *in index order*, the float chain of
    progressive filling's grants (``d - 0.0 == d``).  ``bound`` is the
    largest bounded demand, so an entity is classified by its position in
    the sorted order, never against the final level, and rounding cannot
    misplace a bounded entity.
    """
    if capacity > TIME_EPSILON and sum(demands) <= capacity:
        return math.inf, capacity  # under-subscribed: every demand is met
    ordered = sorted(demands)
    count = len(ordered)
    bound = 0.0
    remaining = capacity
    k = bisect_right(ordered, 0.0)  # zero demands never take part
    while k < count and remaining > TIME_EPSILON:
        share = remaining / (count - k)
        j = bisect_right(ordered, share, k)
        if j == k:
            return bound, share
        low, bound = ordered[k], ordered[j - 1]
        for demand in demands:
            if low <= demand <= bound:
                remaining -= demand
        k = j
    return bound, 0.0


@runtime_checkable
class CpuEngine(Protocol):
    """The interface a worker machine requires of its CPU service.

    Both engines (fair-share, SFS) satisfy it;
    :func:`repro.sim.machine.build_cpu` returns one.
    """

    HOST_GROUP: str
    env: Environment
    cores: float

    def create_group(self, name: str, cap: Optional[float]) -> CpuGroup: ...

    def remove_group(self, name: str) -> None: ...

    def group(self, name: str) -> CpuGroup: ...

    def has_group(self, name: str) -> bool: ...

    def set_group_cap(self, name: str, cap: Optional[float]) -> None: ...

    def abort_group_tasks(self, name: str) -> int: ...

    def submit(self, work: float, group: str = ...) -> Event: ...

    def busy_core_ms(self) -> float: ...

    def current_rate(self) -> float: ...

    def utilization(self) -> float: ...

    def runnable_group_count(self) -> int: ...


class CpuEngineBase:
    """Group bookkeeping and accounting shared by the concrete engines.

    Subclasses implement the scheduling policy (``submit`` and friends);
    this base owns the group registry, the validation rules and the
    utilization arithmetic that were previously duplicated per engine.
    """

    HOST_GROUP = "host"

    def __init__(self, env: Environment, cores: float) -> None:
        self.env = env
        self.cores = cores
        self._groups: Dict[str, CpuGroup] = {
            self.HOST_GROUP: CpuGroup(self.HOST_GROUP, cap=None)}
        self._group_sequence = 0  # the host group holds rank 0
        self._busy_core_ms = 0.0

    # -- groups ----------------------------------------------------------------

    def _clamp_cap(self, cap: float) -> float:
        """Bound a non-None group cap; identity unless a subclass overrides."""
        return cap

    def create_group(self, name: str, cap: Optional[float]) -> CpuGroup:
        """Create a capped group (one per container)."""
        if name in self._groups:
            raise SimulationError(f"CPU group {name!r} already exists")
        if cap is not None:
            cap = self._clamp_cap(cap)
        group = CpuGroup(name, cap)
        self._group_sequence += 1
        group._seq = self._group_sequence
        self._groups[name] = group
        return group

    def dismantle(self) -> None:
        """Cut this engine's reference cycles once its run is over: work
        still running refers to its group, which holds it."""
        for group in self._groups.values():
            group.tasks.clear()
            group.heap.clear()

    def remove_group(self, name: str) -> None:
        """Remove an (empty) group when its container is torn down."""
        if name == self.HOST_GROUP:
            raise SimulationError("cannot remove the host group")
        group = self.group(name)
        if group.tasks:
            raise SimulationError(
                f"CPU group {name!r} still has {len(group.tasks)} tasks")
        del self._groups[name]

    def group(self, name: str) -> CpuGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise SimulationError(f"unknown CPU group {name!r}") from None

    def has_group(self, name: str) -> bool:
        return name in self._groups

    # -- shared validation / helpers --------------------------------------------

    @staticmethod
    def _validate_work(work: float) -> None:
        if work < 0:
            raise ValueError(f"negative work: {work}")

    def _completed_event(self) -> Event:
        """A zero-work submission: completes via a zero-delay event."""
        done = self.env.event()
        done.succeed(0.0)
        return done

    # -- accounting --------------------------------------------------------------

    def current_rate(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return self.current_rate() / self.cores
