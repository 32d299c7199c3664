"""Przybylski-style data-driven dispatch (PAPERS.md, arXiv 2105.03217).

Przybylski et al. schedule function invocations using *data* the platform
already has: online per-function runtime estimates built from completion
history.  Dispatch order follows shortest-estimated-runtime-first, the
classic response-time-minimising discipline (SPT), so a cheap function
arriving behind an expensive one does not inherit its queueing delay.

Structure: one intake loop drains the platform's request queue into a
priority queue ordered by ``(estimated runtime, arrival sequence)``; a
bounded set of executor loops pops the shortest job, serves it through
the shared serial dispatch pipeline, and folds the *measured* execution
time back into the function's EWMA estimate.  Unseen functions get a
neutral default estimate, so the first invocation of each function
competes at the median rather than jumping the queue.

Everything is deterministic: the arrival sequence number breaks estimate
ties in FIFO order, and idle executors park on plain events woken in
FIFO order by the intake loop.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.baselines.base import (
    SERIAL_DISPATCH_PLAN,
    CpuDiscipline,
    Scheduler,
    run_dispatch_pipeline,
)
from repro.common.stats import Ewma
from repro.model.function import Invocation

if TYPE_CHECKING:
    from repro.platformsim.platform import ServerlessPlatform

#: Estimate assigned to a function with no completion history yet (ms).
DEFAULT_ESTIMATE_MS = 100.0
#: Weight of the newest runtime sample in a function's estimate.
EWMA_ALPHA = 0.3


class DataDrivenScheduler(Scheduler):
    """Shortest-estimated-runtime-first from online completion history."""

    name = "DataDriven"
    cpu_discipline = CpuDiscipline.FAIR_SHARE

    def __init__(self) -> None:
        """One executor per worker core bounds concurrent dispatches."""
        self._estimates: Dict[str, Ewma] = {}
        self._pending: List[Tuple[float, int, Invocation]] = []
        self._sequence = itertools.count()
        self._parked: deque = deque()

    def estimate_ms(self, function_id: str) -> float:
        """Current runtime estimate for *function_id* (ms)."""
        estimator = self._estimates.get(function_id)
        if estimator is None or not estimator.initialized:
            return DEFAULT_ESTIMATE_MS
        return estimator.value

    def start(self, platform: "ServerlessPlatform") -> None:
        platform.env.process(self._intake(platform), name="datadriven-intake")
        for index in range(platform.machine.cores):
            platform.env.process(self._executor(platform),
                                 name=f"datadriven-executor:{index}")

    def _intake(self, platform: "ServerlessPlatform"):
        queued = platform.obs.metrics.counter("datadriven.queued")
        while True:
            invocation: Invocation = yield platform.request_queue.get()
            queued.inc()
            heapq.heappush(
                self._pending,
                (self.estimate_ms(invocation.function.function_id),
                 next(self._sequence), invocation))
            if self._parked:
                self._parked.popleft().succeed()

    def _executor(self, platform: "ServerlessPlatform"):
        dispatched = platform.obs.metrics.counter("datadriven.dispatched")
        while True:
            if not self._pending:
                event = platform.env.event()
                self._parked.append(event)
                yield event
                continue
            _estimate, _seq, invocation = heapq.heappop(self._pending)
            dispatched.inc()
            yield from run_dispatch_pipeline(
                platform, [invocation], SERIAL_DISPATCH_PLAN)
            self._learn(invocation)

    def _learn(self, invocation: Invocation) -> None:
        """Fold the measured execution time into the function's estimate."""
        execution_ms = invocation.latency.execution_ms
        if execution_ms <= 0:
            # Failed or never-executed invocations carry no runtime signal.
            return
        function_id = invocation.function.function_id
        estimator = self._estimates.get(function_id)
        if estimator is None:
            estimator = self._estimates[function_id] = \
                Ewma(alpha=EWMA_ALPHA)
        estimator.observe(execution_ms)
