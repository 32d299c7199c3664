"""Resource Multiplexer — simulation-side model (§III-D).

The multiplexer lives *inside a container* and intercepts resource-creation
requests (storage client constructors).  It maintains the paper's
``factory -> Hash(args) -> instance`` mapping:

* **hit** — an instance for this key already exists: return it immediately
  (cost: one hash + dict lookup).
* **in flight** — another invocation is currently building this instance:
  wait for that build to finish, then share the result.  This is what makes
  FaaSBatch's I/O latency collapse into the narrow 10–100 ms band of
  Fig. 12(c): of N concurrent identical creations only the *first* pays.
* **miss** — nobody has built it: the caller builds it and commits the
  result for everyone else.

A real (threading, non-simulated) implementation with the same semantics
lives in :mod:`repro.local.multiplexer`; this one is phrased in terms of the
DES kernel's events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.common.errors import MultiplexerError
from repro.sim.kernel import Environment, Event


class LookupOutcome(enum.Enum):
    """What the multiplexer found for a creation request."""

    HIT = "hit"
    IN_FLIGHT = "in_flight"
    MISS = "miss"


@dataclass
class MultiplexerStats:
    """Counters for reporting and for the ablation benchmarks."""

    hits: int = 0
    in_flight_waits: int = 0
    misses: int = 0
    failed_builds: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.in_flight_waits + self.misses

    @property
    def reuse_ratio(self) -> float:
        """Fraction of lookups served without a fresh build."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.in_flight_waits) / self.lookups


@dataclass
class Lookup:
    """Result of :meth:`SimResourceMultiplexer.lookup`.

    Exactly one of ``instance`` (HIT), ``ready_event`` (IN_FLIGHT) or the
    obligation to call :meth:`SimResourceMultiplexer.commit`/``abort``
    (MISS) applies.
    """

    outcome: LookupOutcome
    key: Tuple[str, int]
    instance: Optional[object] = None
    ready_event: Optional[Event] = None


@dataclass
class _CacheEntry:
    instance: Optional[object] = None
    ready: Optional[Event] = None  # pending build when instance is None


class SimResourceMultiplexer:
    """Per-container resource-args-result cache (DES flavour)."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._cache: Dict[Tuple[str, int], _CacheEntry] = {}
        self.stats = MultiplexerStats()

    # -- the §III-D protocol -----------------------------------------------------

    def lookup(self, factory: str, args_hash: Hashable) -> Lookup:
        """Intercept a creation request for ``factory(args)``.

        Mirrors Fig. 8: search the cached mappings; on a miss the caller
        *must* later call :meth:`commit` (or :meth:`abort` on failure).
        """
        key = self._key(factory, args_hash)
        entry = self._cache.get(key)
        if entry is not None and entry.instance is not None:
            self.stats.hits += 1
            return Lookup(LookupOutcome.HIT, key, instance=entry.instance)
        if entry is not None and entry.ready is not None:
            self.stats.in_flight_waits += 1
            return Lookup(LookupOutcome.IN_FLIGHT, key,
                          ready_event=entry.ready)
        # Miss: reserve the key so concurrent callers wait on our build.
        self.stats.misses += 1
        self._cache[key] = _CacheEntry(ready=self.env.event())
        return Lookup(LookupOutcome.MISS, key)

    def commit(self, key: Tuple[str, int], instance: object) -> None:
        """Publish the freshly built *instance* under *key*."""
        entry = self._entry_being_built(key)
        entry.instance = instance
        ready, entry.ready = entry.ready, None
        assert ready is not None
        ready.succeed(instance)

    def abort(self, key: Tuple[str, int], error: BaseException) -> None:
        """A build failed: propagate to waiters and clear the reservation."""
        entry = self._entry_being_built(key)
        self.stats.failed_builds += 1
        ready = entry.ready
        del self._cache[key]
        assert ready is not None
        # Defused: a crash that kills the builder usually kills the waiters
        # too, so the broadcast may legitimately find nobody listening.
        ready.fail(error).defuse()

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _key(factory: str, args_hash: Hashable) -> Tuple[str, int]:
        try:
            return (factory, hash(args_hash))
        except TypeError as exc:
            raise MultiplexerError(
                f"creation arguments are not hashable: {args_hash!r}") from exc

    def _entry_being_built(self, key: Tuple[str, int]) -> _CacheEntry:
        entry = self._cache.get(key)
        if entry is None or entry.ready is None:
            raise MultiplexerError(
                f"commit/abort without a pending build for {key!r}")
        return entry
