"""Waitable primitives built on the kernel: Resource, Store.

These are the coordination primitives the platform model is written against:

* :class:`Resource` — a counted resource (e.g. "at most N concurrent cold
  starts"); FIFO grant order.
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``;
  this is the request queue the gateway listens on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generic, List, Optional, TypeVar

from repro.common.errors import SimulationError
from repro.sim.kernel import Environment, Event

T = TypeVar("T")

_MISSING = object()


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._on_request(self)

    def release(self) -> None:
        """Give the unit back (idempotent-unsafe: call exactly once)."""
        self.resource._on_release(self)


class Resource:
    """A counted resource with FIFO grant order.

    Usage from a process::

        request = resource.request()
        yield request          # waits until a unit is free
        ...                    # critical section
        request.release()
    """

    __slots__ = ("env", "capacity", "_granted", "_waiting")

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        # Insertion-ordered holders; a dict gives O(1) release instead of a
        # list scan (grant order is unaffected: _waiting stays FIFO).
        self._granted: Dict[Request, None] = {}
        #: FIFO of blocked requests, created on first contention: most
        #: resources (a container's capacity-1 executor) never queue.
        self._waiting: Optional[Deque[Request]] = None

    @property
    def in_use(self) -> int:
        return len(self._granted)

    @property
    def queued(self) -> int:
        return len(self._waiting) if self._waiting is not None else 0

    def request(self) -> Request:
        """Create a pending acquisition (an event to yield on)."""
        return Request(self)

    def cancel(self, request: Request) -> None:
        """Withdraw *request*, whether it is still queued or already granted.

        Needed when the process that issued the request is interrupted (a
        timeout or a container crash) while waiting for its unit: plain
        ``release()`` raises for an ungranted request.  Cancelling an
        already-granted request behaves like ``release()``.
        """
        if request in self._granted:
            self._on_release(request)
            return
        if self._waiting is not None and request in self._waiting:
            self._waiting.remove(request)

    # -- internal protocol -----------------------------------------------------

    def _on_request(self, request: Request) -> None:
        if len(self._granted) < self.capacity:
            self._granted[request] = None
            request.succeed(self)
        else:
            if self._waiting is None:
                self._waiting = deque()
            self._waiting.append(request)

    def _on_release(self, request: Request) -> None:
        if self._granted.pop(request, _MISSING) is _MISSING:
            raise SimulationError("release of a request that holds no unit")
        if self._waiting:
            nxt = self._waiting.popleft()
            self._granted[nxt] = None
            nxt.succeed(self)


class Store(Generic[T]):
    """Unbounded FIFO item queue with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event whose value is the item.
    Waiters are served FIFO.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[T] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    def put(self, item: T) -> None:
        """Add *item*; wakes the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that yields the next item (FIFO)."""
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending getter created by :meth:`get`.

        No-op when the event already received an item (it may have raced);
        the caller must then consume ``event.value`` itself.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def get_nowait(self) -> Optional[T]:
        """Pop the next item immediately, or return None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def drain(self) -> List[T]:
        """Remove and return all queued items (does not wake getters)."""
        items = list(self._items)
        self._items.clear()
        return items

