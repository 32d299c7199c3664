"""A virtual-time asyncio loop and a recording platform for gateway tests.

:class:`VirtualTimeLoop` runs real asyncio callbacks, timers and futures,
but its clock never waits: when nothing is ready it jumps straight to the
next timer's instant.  So a window of 200 ms costs no wall time, and the
instants a test sees are exactly the ones it scheduled.

:class:`RecordingPlatform` stands in for :class:`repro.local.LocalPlatform`
behind a :class:`repro.gateway.Gateway`: it records every group the gateway
dispatches, with the loop instant of the dispatch, and answers each member
with its own payload.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, List, Tuple

from repro.gateway import DegradationConfig, Gateway, GatewayConfig


class VirtualTimeLoop(asyncio.BaseEventLoop):
    """An event loop with no I/O whose clock jumps to the next timer."""

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0
        # ``_run_once`` asks its selector to wait; this loop is its own.
        self._selector = self

    def time(self) -> float:
        return self._now

    def select(self, timeout):
        if timeout is None:
            raise RuntimeError("nothing ready and nothing scheduled")
        if timeout > 0:
            # The head of the timer heap is what the loop waits for.
            self._now = self._scheduled[0].when()
        return []

    def _process_events(self, event_list) -> None:
        pass

    def _write_to_self(self) -> None:
        pass


@dataclass
class Dispatched:
    """One group the gateway handed to the platform."""

    at: float
    function: str
    payloads: List[Any]


@dataclass
class RecordingPlatform:
    """The part of ``LocalPlatform`` a gateway uses, recording groups."""

    functions: List[str] = field(default_factory=lambda: ["echo"])
    dispatched: List[Dispatched] = field(default_factory=list)
    loop: Any = None
    state: str = "accepting"
    runners_started: int = 0
    runners_idle: int = 0

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def submit_group(self, name: str, payloads: List[Any],
                     on_resolved: Callable[[list], None]) -> None:
        self.dispatched.append(Dispatched(self.loop.time(), name,
                                          list(payloads)))
        on_resolved([SimpleNamespace(position=index, error=None,
                                     result=payload, payload=payload,
                                     started_at=None)
                     for index, payload in enumerate(payloads)])


@contextlib.contextmanager
def virtual_gateway(window_seconds: float, functions: Iterable[str] = ("echo",),
                    **config) -> Iterator[Tuple[VirtualTimeLoop, Gateway,
                                                RecordingPlatform]]:
    """A faasbatch gateway over a recording platform on a virtual loop."""
    loop = VirtualTimeLoop()
    platform = RecordingPlatform(functions=list(functions), loop=loop)
    config.setdefault("degradation", DegradationConfig(enabled=False))

    async def build() -> Gateway:  # the gateway serves on the running loop
        return Gateway(platform, GatewayConfig(  # type: ignore[arg-type]
            policy="faasbatch", window_seconds=window_seconds, **config))

    gateway = loop.run_until_complete(build())
    try:
        yield loop, gateway, platform
    finally:
        loop.close()


def replay(loop: VirtualTimeLoop, gateway: Gateway,
           arrivals: Iterable[Tuple[float, str, Any]],
           until: float) -> List[Any]:
    """Submit each ``(instant, function, payload)`` at its instant, run the
    loop to *until*, and return the responses in arrival order."""
    responses: List[Any] = []
    for at, function, payload in arrivals:
        slot = len(responses)
        responses.append(None)
        loop.call_at(at, gateway.submit, function, payload,
                     lambda response, slot=slot:
                     responses.__setitem__(slot, response))
    loop.run_until_complete(asyncio.sleep(until - loop.time()))
    return responses
