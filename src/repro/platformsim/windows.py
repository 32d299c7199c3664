"""Dispatch-window collection shared by windowed schedulers.

Both FaaSBatch's Invoke Mapper and the ported Kraken gather "all invocation
requests within this time interval" (§III-B) from the platform's request
queue and treat them as concurrent.  :func:`collect_window` implements that
once, with careful handling of the race between the window timer and a
request arriving at the very same simulated instant.  Every window stays
open for the same fixed interval (the paper's 0.2 s by default).

``on_open`` / ``on_close`` are optional *pure observer* callbacks fired when
the window opens (first item taken) and when its batch is returned; the
platform uses them to maintain the ``scheduler.open_windows`` telemetry
gauge.  They must not schedule events or touch the queue.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TypeVar

from repro.sim.kernel import Environment
from repro.sim.primitives import Store

T = TypeVar("T")

#: Observer of a window boundary: called with the simulated time (ms).
WindowObserver = Callable[[float], None]


def collect_window(env: Environment, queue: Store[T], window_ms: float,
                   on_open: Optional[WindowObserver] = None,
                   on_close: Optional[WindowObserver] = None):
    """Generator: wait for the first item, then drain one dispatch window.

    The window opens when the first item is taken — the wait for it,
    arbitrarily long on sparse workloads, is not part of the window — and
    closes ``window_ms`` later.  Returns ``(batch, window_open_ms)``, the
    batch holding at least one item.
    """
    first: T = yield queue.get()
    window_open = env.now
    if on_open is not None:
        on_open(window_open)
    batch: List[T] = [first]
    window_end = env.now + window_ms
    while env.now < window_end:
        get_event = queue.get()
        timer = env.timeout(window_end - env.now)
        winner, value = yield (get_event | timer)
        if winner is get_event:
            batch.append(value)
            continue
        # The timer won.  The pending getter must be withdrawn so it does
        # not silently swallow a future request — unless an item raced in
        # at this exact instant, in which case we must keep it.
        if get_event.triggered:
            batch.append(get_event.value)
        else:
            queue.cancel_get(get_event)
        break
    if on_close is not None:
        on_close(env.now)
    return batch, window_open
