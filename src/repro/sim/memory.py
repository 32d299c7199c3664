"""Memory accounting for the worker machine.

The paper reports total system memory (Figs. 13a/14a), per-client memory
footprints (Fig. 14d) and container memory.  This module provides a simple
allocate/free account with current and peak usage (the 1 Hz usage series
is the machine sampler's, :class:`~repro.sim.machine.ResourceSample`).  It does
not model paging: exceeding physical capacity raises
:class:`~repro.common.errors.CapacityExceeded`, which in the paper's own
evaluation manifested as "worker VM downtime" under the full I/O burst —
our experiments size workloads the same way the paper did to stay below it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.common.errors import CapacityExceeded, SimulationError
from repro.sim.kernel import Environment


class MemoryAccount:
    """Tracks named memory allocations on one machine.

    Its state is O(live owners): the allocations, current usage and the
    peak.  It keeps no per-change history, which would grow by ~4 samples
    per invocation (see "Memory" in ``docs/performance.md``).
    """

    def __init__(self, env: Environment, capacity_mb: float,
                 strict: bool = True) -> None:
        if capacity_mb <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity_mb}")
        self.env = env
        self.capacity_mb = capacity_mb
        self.strict = strict
        self._allocations: Dict[str, float] = {}
        self._used = 0.0
        self._peak = 0.0
        #: Observers of usage changes, ``hook(used_mb)`` — the OOM-fault
        #: watch point.  None installed → zero overhead on the hot path.
        self._usage_hooks: List[Callable[[float], None]] = []

    def add_usage_hook(self, hook: Callable[[float], None]) -> None:
        """Call ``hook(used_mb)`` after every allocate/free.

        Hooks must not allocate or free synchronously (re-entrancy); an OOM
        watcher should schedule a zero-delay process to act instead.
        """
        self._usage_hooks.append(hook)

    @property
    def used_mb(self) -> float:
        return self._used

    @property
    def peak_mb(self) -> float:
        return self._peak

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self._used

    def allocate(self, owner: str, amount_mb: float) -> None:
        """Charge *amount_mb* to *owner* (amounts accumulate per owner)."""
        if amount_mb < 0:
            raise ValueError(f"negative allocation: {amount_mb}")
        if self.strict and self._used + amount_mb > self.capacity_mb:
            raise CapacityExceeded(
                f"allocating {amount_mb:.1f} MB for {owner!r} exceeds "
                f"capacity ({self._used:.1f}/{self.capacity_mb:.1f} MB used)")
        self._allocations[owner] = self._allocations.get(owner, 0.0) + amount_mb
        self._used += amount_mb
        self._peak = max(self._peak, self._used)
        self._notify()

    def free(self, owner: str, amount_mb: float | None = None) -> None:
        """Release *amount_mb* from *owner* (all of it when None)."""
        held = self._allocations.get(owner)
        if held is None:
            raise SimulationError(f"{owner!r} holds no memory")
        if amount_mb is None:
            amount_mb = held
        if amount_mb < 0 or amount_mb > held + 1e-9:
            raise SimulationError(
                f"{owner!r} cannot free {amount_mb} MB (holds {held} MB)")
        remaining = held - amount_mb
        if remaining <= 1e-9:
            del self._allocations[owner]
            amount_mb = held
        else:
            self._allocations[owner] = remaining
        self._used -= amount_mb
        self._notify()

    def held_by(self, owner: str) -> float:
        return self._allocations.get(owner, 0.0)

    def owners(self) -> Dict[str, float]:
        """Snapshot of current allocations by owner."""
        return dict(self._allocations)

    def _notify(self) -> None:
        for hook in self._usage_hooks:
            hook(self._used)
