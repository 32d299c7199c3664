"""Per-function dispatch-window queues on the gateway event loop.

The FaaSBatch Invoke Mapper, applied to live requests: the first request
for a function opens a window timer; requests arriving inside the window
join its pending list; when the timer fires the whole list is flushed as
one group to the platform (one container, inline-parallel threads).

This is the live tier's only dispatch window: the gateway hands each
closed window (or a request it dispatches alone) to
:meth:`repro.local.LocalPlatform.submit_group`, and the platform keeps
that grouping — warm pool, timeouts and accounting included, and retries
too, which rerun a group's failed members as one group of their own.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


@dataclass(slots=True)
class PendingRequest:
    """One live request parked in (or dispatched from) a window queue."""

    request_id: str
    function: str
    payload: Any
    #: Receives the request's one ``GatewayResponse``; cleared once it has,
    #: so ``None`` marks a settled request.
    on_response: Optional[Callable[[Any], None]]
    enqueued_at: float
    #: Dispatch mode the degradation monitor chose ("batch" | "vanilla").
    mode: str = "batch"
    #: Wall-clock the group was flushed to the platform (loop time).
    dispatched_at: Optional[float] = None


#: Callback receiving ``(function, [PendingRequest])`` when a window closes.
DispatchFn = Callable[[str, List[PendingRequest]], None]


@dataclass
class FunctionBatcher:
    """One function's dispatch-window queue (event-loop confined)."""

    function: str
    window_seconds: float
    dispatch: DispatchFn
    loop: asyncio.AbstractEventLoop
    pending: List[PendingRequest] = field(default_factory=list)
    _timer: Optional[asyncio.TimerHandle] = None

    @property
    def depth(self) -> int:
        return len(self.pending)

    def enqueue(self, request: PendingRequest) -> None:
        """Park *request*; the first arrival opens the window timer."""
        self.pending.append(request)
        if self._timer is None:
            self._timer = self.loop.call_later(self.window_seconds,
                                               self.flush)

    def evict_oldest(self) -> PendingRequest:
        """Drop the head of the queue (oldest-first shedding)."""
        victim = self.pending.pop(0)
        if not self.pending and self._timer is not None:
            self._timer.cancel()
            self._timer = None
        return victim

    def flush(self) -> None:
        """Close the window: hand every pending request to ``dispatch``."""
        self._timer = None
        if not self.pending:
            return
        batch, self.pending = self.pending, []
        self.dispatch(self.function, batch)

    def close(self) -> None:
        """Cancel the timer and flush whatever is still parked."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.flush()
