"""Resource Multiplexer (§III-D): the cache core and its live driver.

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
  result for everyone else.  A failed build is evicted, so a later request
  builds again; its waiters see the failure.

:class:`MultiplexerCore` holds the key, the three states, the eviction and
the counters, and knows no clock.  A tier adds only what a wait is made
of: :class:`ResourceMultiplexer` here, the real one a Python FaaS runtime
can embed, a lock and a thread wait; the simulator's
:class:`repro.core.multiplexer.SimResourceMultiplexer` a kernel ``Event``.

Example::

    multiplexer = ResourceMultiplexer()
    client_a = multiplexer.get_or_create(ExpensiveClient, "AK", "SK")
    client_b = multiplexer.get_or_create(ExpensiveClient, "AK", "SK")
    assert client_b is client_a   # cache hit: built once
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple, TypeVar

from repro.common.errors import MultiplexerError

T = TypeVar("T")

Key = Tuple[str, int]


def hash_arguments(args: Hashable,
                   kwargs: Optional[Dict[str, Any]] = None) -> int:
    """The paper's ``Hash(args)``: one stable hash over all creation args.

    Keyword order does not matter.  Raises :class:`MultiplexerError` for
    unhashable arguments — callers should pass credentials/endpoints
    (hashable), not live objects.
    """
    try:
        return hash((args, tuple(sorted(kwargs.items()))) if kwargs
                    else args)
    except TypeError as exc:
        raise MultiplexerError(
            f"creation arguments are not hashable: args={args!r} "
            f"kwargs={kwargs!r}") from exc


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


@dataclass(slots=True)
class _Entry:
    """One cache slot: a build in flight until ``built``."""

    #: What an in-flight caller waits on (the tier's own primitive).
    wait: Any
    built: bool = False
    instance: Any = None
    error: Optional[BaseException] = None


class MultiplexerCore:
    """The per-container resource-args-result cache, clock-free."""

    def __init__(self, new_wait: Callable[[], Any]) -> None:
        #: Makes what in-flight callers of a new build wait on.
        self._new_wait = new_wait
        self._cache: Dict[Key, _Entry] = {}
        self.stats = MultiplexerStats()

    def _lookup(self, key: Key) -> Tuple[LookupOutcome, _Entry]:
        """Classify a request; a miss reserves *key* for its caller."""
        entry = self._cache.get(key)
        if entry is None:
            self.stats.misses += 1
            entry = self._cache[key] = _Entry(self._new_wait())
            return LookupOutcome.MISS, entry
        if entry.built:
            self.stats.hits += 1
            return LookupOutcome.HIT, entry
        self.stats.in_flight_waits += 1
        return LookupOutcome.IN_FLIGHT, entry

    def _commit(self, key: Key, instance: Any) -> _Entry:
        """Publish the build of *key*; its waiters are the caller's to wake."""
        entry = self._being_built(key)
        entry.instance, entry.built = instance, True
        return entry

    def _abort(self, key: Key, error: BaseException) -> _Entry:
        """Evict a failed build of *key*, so a later request retries it."""
        entry = self._being_built(key)
        self.stats.failed_builds += 1
        entry.error = error
        del self._cache[key]
        return entry

    def _being_built(self, key: Key) -> _Entry:
        entry = self._cache.get(key)
        if entry is None or entry.built:
            raise MultiplexerError(
                f"commit/abort without a pending build for {key!r}")
        return entry


class ResourceMultiplexer(MultiplexerCore):
    """The core under a lock: an in-flight build is a ``threading.Event``."""

    def __init__(self) -> None:
        super().__init__(threading.Event)
        self._lock = threading.Lock()

    def get_or_create(self, factory: Callable[..., T], *args: Any,
                      **kwargs: Any) -> T:
        """Return the instance for ``factory(*args, **kwargs)``, building once.

        The factory is identified by its qualified name (matching the
        paper's ``client → Hash(args)`` keying); two distinct functions
        never share entries.
        """
        name = getattr(factory, "__qualname__", None) or repr(factory)
        key = (name, hash_arguments(args, kwargs))
        with self._lock:
            outcome, entry = self._lookup(key)
        if outcome is LookupOutcome.HIT:
            return entry.instance
        if outcome is LookupOutcome.IN_FLIGHT:
            entry.wait.wait()
            if entry.error is not None:
                raise entry.error
            return entry.instance
        try:
            instance = factory(*args, **kwargs)
        except BaseException as error:
            with self._lock:
                self._abort(key, error)
            entry.wait.set()
            raise
        with self._lock:
            self._commit(key, instance)
        entry.wait.set()
        return instance
