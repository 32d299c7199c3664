"""Inline-Parallel Producer (§III-C): one container per group, expanded.

The producer's three steps, straight from Fig. 7:

1. receive a function group (invocation count, function type, resource
   limits) from the Invoke Mapper;
2. obtain a container — a keep-alive hit or a cold start — and apply the
   customer's CPU limit (``cpu_count``/``cpuset_cpus``);
3. fire one request at the container that *expands* all batched invocations
   as parallel threads; the request returns only after every invocation of
   the group has completed.

With ``inline_parallel`` disabled (ablation), the group is executed as a
serial in-container queue instead — the Kraken-style behaviour the paper
contrasts against.

Execution rides the shared dispatch pipeline
(:func:`repro.baselines.base.run_dispatch_pipeline`); the producer's job is
reduced to translating a :class:`~repro.core.mapper.FunctionGroup` into a
:class:`~repro.baselines.base.DispatchPlan` (parallel expansion, resource
multiplexer, per-group BATCH_STARTED tagging) and keeping its counters.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.baselines.base import DispatchPlan, run_dispatch_pipeline
from repro.core.mapper import FunctionGroup

if TYPE_CHECKING:
    from repro.platformsim.platform import ServerlessPlatform


class InlineParallelProducer:
    """Maps each function group onto a single container and runs it."""

    def __init__(self, inline_parallel: bool = True,
                 multiplex_resources: bool = True,
                 early_return: bool = False) -> None:
        self.inline_parallel = inline_parallel
        self.multiplex_resources = multiplex_resources
        self.early_return = early_return
        self.groups_executed = 0
        self.invocations_executed = 0

    def concurrency_limit(self, group: FunctionGroup) -> Optional[int]:
        """In-container concurrency for *group*.

        ``None`` (unbounded threads) under inline parallelism; ``1`` (a
        serial queue) in the ablation configuration.
        """
        return None if self.inline_parallel else 1

    def dispatch_plan(self, group: FunctionGroup) -> DispatchPlan:
        """The shared-pipeline plan implementing this producer for *group*."""
        return DispatchPlan(
            concurrency_limit=self.concurrency_limit(group),
            with_multiplexer=self.multiplex_resources,
            acquire_on_miss=True,
            early_return=self.early_return,
            batch_event_function_id=group.function_id,
            record_batch_size_metric=False)

    def run_group(self, platform: "ServerlessPlatform", group: FunctionGroup):
        """Generator: one dispatch/launch decision + execution for *group*.

        The platform handled every request of the window (HTTP receive +
        enqueue) but pays only ONE dispatch/launch decision per group —
        the collapse that drives Fig. 11/12's scheduling-latency wins.
        """
        count = yield from run_dispatch_pipeline(
            platform, list(group.invocations), self.dispatch_plan(group),
            function=group.function)
        if count:
            self.groups_executed += 1
            self.invocations_executed += count
