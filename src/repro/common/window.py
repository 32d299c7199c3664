"""The dispatch window (§III-B): one state machine for both tiers.

"All invocation requests within this time interval" count as concurrent;
they are grouped by function, and each group runs in one container.
:class:`DispatchWindow` holds that rule and knows no clock: a driver hands
it each arrival with its instant (:meth:`~DispatchWindow.arrive`) and
closes the window at the instant the opening arrival was told
(:meth:`~DispatchWindow.close`).  Instants are plain floats in the
driver's unit.  Two drivers run it:

* the simulator's :func:`repro.platformsim.windows.collect_window`, on the
  kernel clock in milliseconds (FaaSBatch's Invoke Mapper and Kraken);
* the live :class:`repro.gateway.server.Gateway`, on the event loop's
  clock in seconds, with one ``loop.call_at`` timer per window.

The rules:

* **One window over all functions.**  It opens at its first arrival, so
  an idle wait for that arrival is not part of it, and it closes
  ``length`` later.
* **A zero window dispatches at enqueue.**  It closes at the instant it
  opens, so its first arrival leaves alone, before the next is taken.
* **Grouping.**  :meth:`~DispatchWindow.close` returns one group per
  function: groups in the order of each function's first arrival in the
  window, members in arrival order.
* **An arrival at exactly the close instant** joins the closing window if
  the driver hands it over before it calls ``close``, and opens the next
  window otherwise; it is never lost.  Both drivers close from a timer due
  at that instant, so the tie goes to whichever their clock runs first.
  The kernel runs an instant's due timers before the events they trigger,
  and ``collect_window`` closes on the event its timer triggers, so an
  arrival timed for the close instant joins; one that a zero-delay step
  at that instant causes after the close opens the next window.  The
  event loop runs the callbacks due in a turn in the order it takes them,
  requests it has received before the timers that fall due.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, List, NamedTuple, Optional, TypeVar

T = TypeVar("T")


class WindowGroup(NamedTuple):
    """One function's members of a closed window."""

    function: str
    members: List[Any]
    opened_at: float
    closed_at: float


class DispatchWindow(Generic[T]):
    """The open dispatch window: its members grouped by function."""

    __slots__ = ("length", "opened_at", "_groups")

    def __init__(self, length: float) -> None:
        if length < 0:
            raise ValueError(f"negative window: {length}")
        self.length = float(length)
        #: The open window's first-arrival instant; ``None`` when closed.
        self.opened_at: Optional[float] = None
        self._groups: Dict[str, List[T]] = {}

    def arrive(self, item: T, function: str, now: float) -> Optional[float]:
        """Add *item*; returns the close instant if it opened the window."""
        members = self._groups.get(function)
        if members is None:
            self._groups[function] = [item]
        else:
            members.append(item)
        if self.opened_at is not None:
            return None
        self.opened_at = now
        return now + self.length

    def depth(self, function: str) -> int:
        """Members *function* has in the open window."""
        members = self._groups.get(function)
        return len(members) if members else 0

    def evict_oldest(self, function: str) -> T:
        """Take *function*'s oldest member out of the open window.

        The window stays open until its close instant even if this empties
        it: it opened at an arrival, evicted or not.
        """
        members = self._groups[function]
        victim = members.pop(0)
        if not members:
            del self._groups[function]
        return victim

    def close(self, now: float) -> List[WindowGroup]:
        """Close the window at *now*; returns its groups (none if empty)."""
        opened_at, groups = self.opened_at, self._groups
        self.opened_at, self._groups = None, {}
        return [WindowGroup(function, members, opened_at, now)
                for function, members in groups.items()]
