"""Invoke Mapper (§III-B): window batching and per-function grouping.

"A function group is defined as the concurrent invocations received for an
identical function over a period of time."  The mapper listens on the
platform's request queue; all requests that arrive within one dispatch
window are treated as concurrent, classified by function, and each group is
destined for a *single* container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.model.function import FunctionSpec, Invocation
from repro.platformsim.windows import collect_window
from repro.sim.kernel import Environment
from repro.sim.primitives import Store


@dataclass(frozen=True)
class FunctionGroup:
    """One function group: what the mapper hands the producer (Fig. 7 ①).

    Carries "the number of invocations, the function type, and resource
    limits" — the information the Inline-Parallel Producer consumes.
    """

    function: FunctionSpec
    invocations: Tuple[Invocation, ...]
    window_start_ms: float
    window_end_ms: float

    def __post_init__(self) -> None:
        if not self.invocations:
            raise ValueError("a function group cannot be empty")
        for invocation in self.invocations:
            if invocation.function.function_id != self.function.function_id:
                raise ValueError(
                    f"{invocation.invocation_id} does not belong to "
                    f"function {self.function.function_id!r}")

    @property
    def size(self) -> int:
        return len(self.invocations)

    @property
    def function_id(self) -> str:
        return self.function.function_id

    @property
    def cpu_limit(self):
        """The customer resource limit forwarded to the producer."""
        return self.function.cpu_limit


class InvokeMapper:
    """Batches a dispatch window of requests into function groups.

    Every window stays open for the same ``window_ms``, the paper's
    constant interval.  The mapper drains one multi-function queue, so one
    window collects every function's arrivals.
    """

    def __init__(self, window_ms: float) -> None:
        if window_ms < 0:
            raise ValueError(f"negative window: {window_ms}")
        self.window_ms = float(window_ms)

    def collect_groups(self, env: Environment,
                       queue: Store[Invocation],
                       on_open=None, on_close=None):
        """Generator: wait out one dispatch window, return its groups.

        Usage: ``groups = yield from mapper.collect_groups(env, queue)``.
        Groups preserve arrival order within each function.

        The window opens at the *first arrival*, not when the mapper starts
        waiting: on sparse workloads the mapper can idle for seconds before
        a request shows up, and that idle time is not part of the window.
        ``on_open``/``on_close`` are forwarded to the window collector —
        pure observers of the window boundaries (telemetry only).
        """
        batch, window_start = yield from collect_window(
            env, queue, self.window_ms, on_open=on_open, on_close=on_close)
        return self.group_invocations(batch, window_start_ms=window_start,
                                      window_end_ms=env.now)

    @staticmethod
    def group_invocations(invocations: List[Invocation],
                          window_start_ms: float,
                          window_end_ms: float) -> List[FunctionGroup]:
        """Classify *invocations* by function (pure, order-preserving)."""
        by_function: Dict[str, List[Invocation]] = {}
        for invocation in invocations:
            by_function.setdefault(invocation.function.function_id,
                                   []).append(invocation)
        return [FunctionGroup(function=members[0].function,
                              invocations=tuple(members),
                              window_start_ms=window_start_ms,
                              window_end_ms=window_end_ms)
                for members in by_function.values()]
