"""Hiku-style pull-based scheduling (PAPERS.md, arXiv 2502.15534).

Hiku inverts the dispatch direction: instead of the front end *pushing*
every request into its own handler the moment it arrives (Vanilla/SFS),
idle workers *pull* the next request from a shared queue when they have
capacity.  The queue absorbs bursts and the pull loop bounds concurrency
at the worker count, so a spike never mass-cold-starts hundreds of
containers at once — the failure mode that blows up Vanilla's scheduling
latency in Figs. 11(a)/12(a).  The price is queueing: requests wait for a
free puller instead of contending for the CPU immediately.

Each puller drives the shared serial dispatch pipeline, so warm-pool
reuse, injected faults, resilience watchdogs and observability all apply
exactly as they do to every other policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.baselines.base import (
    SERIAL_DISPATCH_PLAN,
    CpuDiscipline,
    Scheduler,
    run_dispatch_pipeline,
)
from repro.common.errors import ConfigurationError
from repro.model.function import Invocation

if TYPE_CHECKING:
    from repro.platformsim.platform import ServerlessPlatform


class HikuScheduler(Scheduler):
    """Idle workers pull requests from the shared queue (bounded pulls)."""

    name = "Hiku"
    cpu_discipline = CpuDiscipline.FAIR_SHARE

    def __init__(self, pullers: Optional[int] = None) -> None:
        """``pullers`` bounds concurrent dispatches; default = worker cores."""
        if pullers is not None and pullers < 1:
            raise ConfigurationError(
                f"pullers must be >= 1, got {pullers}")
        self.pullers = pullers

    def start(self, platform: "ServerlessPlatform") -> None:
        count = self.pullers if self.pullers is not None \
            else platform.machine.cores
        for index in range(count):
            platform.env.process(self._pull_loop(platform),
                                 name=f"hiku-puller:{index}")

    def _pull_loop(self, platform: "ServerlessPlatform"):
        pulled = platform.obs.metrics.counter("hiku.pulled")
        while True:
            invocation: Invocation = yield platform.request_queue.get()
            pulled.inc()
            # The puller is busy until this request is fully served — that
            # *is* the pull model's backpressure.
            yield from run_dispatch_pipeline(
                platform, [invocation], SERIAL_DISPATCH_PLAN)
