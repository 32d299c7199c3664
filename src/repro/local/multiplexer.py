"""Resource Multiplexer — the real, threading implementation (§III-D).

This is the piece of FaaSBatch a downstream Python FaaS runtime can embed
directly: a thread-safe memoising interceptor for expensive resource
constructors (storage clients, DB connection pools, ...).  Semantics match
Fig. 8 and the simulation model in :mod:`repro.core.multiplexer`:

* the cache maps ``factory → Hash(args) → instance``;
* a **hit** returns the cached instance without calling the factory;
* concurrent first requests for the same key coordinate so that exactly
  **one** thread builds while the rest wait and then share the result
  (in-flight deduplication — the property that collapses N racing client
  creations into one);
* a failed build propagates its exception to all waiters and clears the
  reservation so a later request can retry.

Example::

    multiplexer = ResourceMultiplexer()

    @multiplexer.multiplexed
    def s3_client(access_key, secret_key):
        return ExpensiveClient(access_key, secret_key)

    client_a = s3_client("AK", "SK")   # builds
    client_b = s3_client("AK", "SK")   # cache hit: client_b is client_a
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.common.errors import MultiplexerError

T = TypeVar("T")

Key = Tuple[str, int]


def hash_arguments(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    """The paper's ``Hash(args)``: one stable hash over all creation args.

    Raises :class:`MultiplexerError` for unhashable arguments — callers
    should pass credentials/endpoints (hashable), not live objects.
    """
    try:
        return hash((args, tuple(sorted(kwargs.items()))))
    except TypeError as exc:
        raise MultiplexerError(
            f"creation arguments are not hashable: args={args!r} "
            f"kwargs={kwargs!r}") from exc


@dataclass
class MultiplexerMetrics:
    """Thread-safe counters (guarded by the multiplexer's lock)."""

    hits: int = 0
    misses: int = 0
    in_flight_waits: int = 0
    failed_builds: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.in_flight_waits


@dataclass
class _Entry:
    """One cache slot: either a live instance or an in-progress build."""

    ready: threading.Event = field(default_factory=threading.Event)
    instance: Any = None
    error: Optional[BaseException] = None


class ResourceMultiplexer:
    """Thread-safe resource-args-result cache with in-flight deduplication."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cache: Dict[Key, _Entry] = {}
        self.metrics = MultiplexerMetrics()

    # -- core protocol -----------------------------------------------------------

    def get_or_create(self, factory: Callable[..., T], *args: Any,
                      **kwargs: Any) -> T:
        """Return the instance for ``factory(*args, **kwargs)``, building once.

        The factory is identified by its qualified name (matching the
        paper's ``client → Hash(args)`` keying); two distinct functions
        never share entries.
        """
        key = self._key(factory, args, kwargs)
        builder = False
        with self._lock:
            entry = self._cache.get(key)
            if entry is None:
                entry = _Entry()
                self._cache[key] = entry
                self.metrics.misses += 1
                builder = True
            elif entry.ready.is_set():
                if entry.error is None:
                    self.metrics.hits += 1
                    return entry.instance
                # A previous build failed and was not cleaned (shouldn't
                # happen: failures evict), guard anyway.
                raise entry.error
            else:
                self.metrics.in_flight_waits += 1

        if builder:
            return self._build(key, entry, factory, args, kwargs)

        entry.ready.wait()
        if entry.error is not None:
            raise entry.error
        return entry.instance

    def _build(self, key: Key, entry: _Entry, factory: Callable[..., T],
               args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> T:
        try:
            instance = factory(*args, **kwargs)
        except BaseException as error:
            with self._lock:
                self.metrics.failed_builds += 1
                entry.error = error
                # Evict so a later request can retry the build.
                self._cache.pop(key, None)
            entry.ready.set()
            raise
        entry.instance = instance
        entry.ready.set()
        return instance

    # -- decorator ------------------------------------------------------------------

    def multiplexed(self, factory: Callable[..., T]) -> Callable[..., T]:
        """Wrap *factory* so every call goes through the multiplexer."""

        @functools.wraps(factory)
        def wrapper(*args: Any, **kwargs: Any) -> T:
            return self.get_or_create(factory, *args, **kwargs)

        wrapper.__multiplexer__ = self  # type: ignore[attr-defined]
        return wrapper

    # -- internals --------------------------------------------------------------------

    @staticmethod
    def _key(factory: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> Key:
        name = getattr(factory, "__qualname__", None) or repr(factory)
        return (name, hash_arguments(args, kwargs))
