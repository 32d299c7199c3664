"""The simulator's driver of the dispatch window.

Both FaaSBatch's Invoke Mapper and the ported Kraken gather "all invocation
requests within this time interval" (§III-B) from the platform's request
queue and treat them as concurrent.  :func:`collect_window` feeds that
queue into a :class:`~repro.common.window.DispatchWindow` on the kernel
clock, with careful handling of the race between the window timer and a
request arriving at the very same simulated instant.

``on_open`` / ``on_close`` are optional *pure observer* callbacks fired when
the window opens (first item taken) and when its groups are returned; the
platform uses them to maintain the ``scheduler.open_windows`` telemetry
gauge.  They must not schedule events or touch the queue.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.common.window import DispatchWindow
from repro.model.function import Invocation
from repro.sim.kernel import Environment
from repro.sim.primitives import Store

T = TypeVar("T")

#: Observer of a window boundary: called with the simulated time (ms).
WindowObserver = Callable[[float], None]


def function_id_of(invocation: Invocation) -> str:
    """The window key of a simulated invocation: its function id."""
    return invocation.function.function_id


def collect_window(env: Environment, queue: Store[T],
                   window: DispatchWindow[T], function_of: Callable[[T], str],
                   on_open: Optional[WindowObserver] = None,
                   on_close: Optional[WindowObserver] = None):
    """Generator: wait for the first item, then drain one dispatch window.

    The window opens when the first item is taken — the wait for it,
    arbitrarily long on sparse workloads, is not part of the window — and
    closes ``window.length`` ms later.  Returns the window's groups, keyed
    by ``function_of(item)``; there is at least one.
    """
    first: T = yield queue.get()
    window_end = window.arrive(first, function_of(first), env.now)
    if on_open is not None:
        on_open(env.now)
    while env.now < window_end:
        get_event = queue.get()
        timer = env.timeout(window_end - env.now)
        winner, value = yield (get_event | timer)
        if winner is get_event:
            window.arrive(value, function_of(value), env.now)
            continue
        # The timer won.  The pending getter must be withdrawn so it does
        # not silently swallow a future request — unless an item raced in
        # at this exact instant, in which case we must keep it.
        if get_event.triggered:
            value = get_event.value
            window.arrive(value, function_of(value), env.now)
        else:
            queue.cancel_get(get_event)
        break
    if on_close is not None:
        on_close(env.now)
    return window.close(env.now)

