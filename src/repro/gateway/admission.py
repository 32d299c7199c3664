"""Admission control and load shedding for the gateway.

The gateway is an open system: arrivals do not slow down because the
platform is busy, so without admission control a burst turns into an
unbounded queue and every request times out (congestive collapse).  Two
bounds keep the served system stable:

* a **global in-flight cap** — requests admitted but not yet responded;
* a **per-function queue depth bound** — requests waiting in one
  function's dispatch window.

Requests over either bound are shed with HTTP 429 + ``Retry-After``.
``shed_policy`` picks the victim when a window queue is full:
``"newest"`` rejects the arriving request (classic tail drop),
``"oldest"`` evicts the head of the queue — the request that has already
waited longest and is most likely to blow its deadline anyway — and
admits the fresh one.

Everything here runs on the event loop thread, so plain integers are
safe; there are deliberately no locks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError

_SHED_POLICIES = ("newest", "oldest")

#: Shed-cause labels (stable: they appear in metrics and bench cells).
SHED_INFLIGHT = "inflight-cap"
SHED_QUEUE_DEPTH = "queue-depth"


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounds of the gateway waiting room."""

    #: Maximum requests waiting in one function's dispatch window.
    max_queue_depth: int = 256
    #: Maximum requests admitted and not yet responded, across functions.
    max_inflight: int = 2048
    #: ``Retry-After`` hint handed to shed callers, in seconds.
    retry_after_seconds: float = 0.05
    #: Victim selection when a window queue is full: "newest" | "oldest".
    shed_policy: str = "newest"

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.retry_after_seconds < 0:
            raise ConfigurationError(
                f"retry_after_seconds must be >= 0, "
                f"got {self.retry_after_seconds}")
        if self.shed_policy not in _SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {_SHED_POLICIES}, "
                f"got {self.shed_policy!r}")


class AdmissionController:
    """Event-loop-confined counters enforcing :class:`AdmissionConfig`."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.inflight = 0
        self.admitted = 0
        self.shed = {SHED_INFLIGHT: 0, SHED_QUEUE_DEPTH: 0}

    def over_inflight(self) -> bool:
        return self.inflight >= self.config.max_inflight

    def queue_full(self, depth: int) -> bool:
        return depth >= self.config.max_queue_depth

    def admit(self) -> None:
        """Account one admitted request (pair with :meth:`release`)."""
        self.inflight += 1
        self.admitted += 1

    def release(self) -> None:
        self.inflight -= 1

    def record_shed(self, cause: str) -> None:
        self.shed[cause] += 1

    def stats(self) -> dict:
        return {
            "inflight": self.inflight,
            "admitted": self.admitted,
            "shed": dict(self.shed),
            "max_inflight": self.config.max_inflight,
            "max_queue_depth": self.config.max_queue_depth,
            "shed_policy": self.config.shed_policy,
        }
