"""The assembled FaaSBatch scheduler (§III).

FaaSBatch = Invoke Mapper + Inline-Parallel Producer + Resource Multiplexer:

* the mapper turns each dispatch window of requests into per-function
  groups;
* the producer maps each group onto a single container and expands the
  batched invocations in parallel inside it;
* each FaaSBatch container carries a resource multiplexer that reuses
  redundant resources (storage clients) across all invocations it serves —
  including across windows, since keep-alive containers retain their cache
  (Fig. 8's λ_A3).

The scheduling path pays one launch decision per group instead of one per
invocation, which together with the collapse in cold starts is what drives
the latency and resource wins of §V.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.base import CpuDiscipline, Scheduler
from repro.core.config import FaaSBatchConfig
from repro.core.mapper import FunctionGroup, InvokeMapper
from repro.core.producer import InlineParallelProducer
from repro.obs.metrics import DEFAULT_SIZE_EDGES as SIZE_EDGES, LazyMetrics

if TYPE_CHECKING:
    from repro.platformsim.platform import ServerlessPlatform


class FaaSBatchScheduler(Scheduler):
    """Batch, map to a single container, expand in parallel, multiplex."""

    name = "FaaSBatch"
    cpu_discipline = CpuDiscipline.FAIR_SHARE

    def __init__(self, config: FaaSBatchConfig | None = None) -> None:
        self.config = config if config is not None else FaaSBatchConfig()
        self.mapper = InvokeMapper(window_ms=self.config.window_ms)
        self.producer = InlineParallelProducer(
            inline_parallel=self.config.inline_parallel,
            multiplex_resources=self.config.multiplex_resources,
            early_return=self.config.early_return)

    def start(self, platform: "ServerlessPlatform") -> None:
        platform.env.process(self._serve(platform), name="faasbatch-loop")

    def _serve(self, platform: "ServerlessPlatform"):
        metrics = LazyMetrics(
            platform.obs.metrics, windows=("counter", "faasbatch.windows"),
            groups=("counter", "faasbatch.groups"),
            group_size=("histogram", "faasbatch.group_size", SIZE_EDGES))
        while True:
            groups = yield from self.mapper.collect_groups(
                platform.env, platform.request_queue,
                on_open=platform.window_opened,
                on_close=platform.window_closed)
            metrics.windows.inc()
            metrics.groups.inc(len(groups))
            size_histogram = metrics.group_size
            for group in groups:
                size_histogram.observe(group.size)
            # Batch-arrival fast path: every group of the closed window
            # starts via one bulk append of start events (order-identical
            # to per-group ``env.process`` calls).
            platform.env.process_batch(
                [self._run_group(platform, group) for group in groups],
                names=[f"faasbatch-group:{group.function_id}"
                       for group in groups])

    def _run_group(self, platform: "ServerlessPlatform", group):
        # One dispatch/launch decision per group; the producer drives the
        # shared pipeline with its parallel-expansion plan.
        yield from self.producer.run_group(platform, group)


__all__ = ["FaaSBatchScheduler", "FunctionGroup"]
