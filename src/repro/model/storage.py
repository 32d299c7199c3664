"""Cloud object-storage client cost model (the S3/Blob substrate).

The paper's I/O benchmark repeatedly constructs AWS S3 socket clients inside
containers (Listing 1) and measures:

* Fig. 4 — creation *time* grows super-linearly with in-container creation
  concurrency: ~66 ms alone, ~3165 ms when 9 creations race (GIL, import
  locks, connection-pool locks).
* Fig. 5 — container memory grows with each extra client instance.
* Fig. 14(d) — ~15 MB resident per client under the baseline policies.

:class:`StorageClientCostModel` encodes those measurements:
``creation_work(c) = base * c ** alpha`` core-ms, where ``c`` is the number
of creations concurrently in flight inside the same container, and a flat
per-instance memory footprint.  The model is deliberately simple and fully
calibrated by two published points (c=1 and c=9).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.model.calibration import Calibration


@dataclass(frozen=True)
class StorageClientCostModel:
    """Cost of constructing one storage client inside a container."""

    base_work_ms: float
    contention_exponent: float
    client_memory_mb: float

    @classmethod
    @functools.lru_cache(maxsize=16)
    def from_calibration(cls, calibration: Calibration) -> "StorageClientCostModel":
        """The model of *calibration*, shared by every caller (immutable)."""
        return cls(base_work_ms=calibration.client_creation_work_ms,
                   contention_exponent=calibration.client_contention_exponent,
                   client_memory_mb=calibration.client_memory_mb)

    def creation_work_ms(self, concurrent_creations: int) -> float:
        """CPU work of one creation when *concurrent_creations* race.

        ``concurrent_creations`` counts this creation itself, so it is >= 1.
        """
        if concurrent_creations < 1:
            raise ValueError(
                f"concurrent_creations must be >= 1, got {concurrent_creations}")
        return self.base_work_ms * (concurrent_creations
                                    ** self.contention_exponent)

    def memory_mb(self, instances: int) -> float:
        """Resident memory of *instances* live client objects."""
        if instances < 0:
            raise ValueError(f"negative instances: {instances}")
        return self.client_memory_mb * instances


class ClientInstance:
    """A constructed storage client living in a container's memory."""

    __slots__ = ("factory", "args_hash", "created_at_ms", "memory_mb")

    def __init__(self, factory: str, args_hash: int, created_at_ms: float,
                 memory_mb: float) -> None:
        self.factory = factory
        self.args_hash = args_hash
        self.created_at_ms = created_at_ms
        self.memory_mb = memory_mb

    def __repr__(self) -> str:
        return (f"<ClientInstance {self.factory}#{self.args_hash:x} "
                f"{self.memory_mb:.1f}MB>")
