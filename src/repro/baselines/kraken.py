"""Kraken: SLO/slack-driven batching with EWMA container provisioning.

Kraken (the paper's [16]) batches invocations into containers such that
queued invocations still meet their SLO, and provisions containers using an
EWMA workload forecast.  The FaaSBatch paper ports it as follows (§IV,
"Porting Kraken and SFS Strategies"):

* the SLO of each function is the **98th-percentile latency observed under
  Vanilla** (instead of the original fixed 1000 ms);
* the workload prediction is made **100 % accurate** by feeding it the
  invocation pattern collected under Vanilla — i.e. at each window Kraken
  knows exactly how many invocations arrived.

Both variants are implemented: :attr:`KrakenMode.PERFECT` (the paper's
setting, the default) and :attr:`KrakenMode.EWMA` (the original
forecast-and-prewarm behaviour, used in unit tests and ablations).

Within a container, a Kraken batch executes **serially** (concurrency limit
1): "Kraken fails to recognize the effectiveness of concurrently executing
function invocations within a single container" (§V-B2).  The wait for the
container's single execution slot is the *queuing latency* that the paper
plots as "Kraken: Exec+Queue".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, TYPE_CHECKING

from repro.baselines.base import (
    SERIAL_DISPATCH_PLAN,
    CpuDiscipline,
    Scheduler,
    run_dispatch_pipeline,
)
from repro.common.errors import (
    ColdStartError,
    ConfigurationError,
    SchedulingError,
)
from repro.common.stats import Ewma, SampleStats
from repro.common.window import DispatchWindow, WindowGroup
from repro.model.function import Invocation
from repro.obs.metrics import DEFAULT_SIZE_EDGES as SIZE_EDGES
from repro.platformsim.windows import collect_window, function_id_of

if TYPE_CHECKING:
    from repro.platformsim.platform import ServerlessPlatform


class KrakenMode(enum.Enum):
    """How Kraken decides container counts per window."""

    PERFECT = "perfect"  # the paper's 100%-accurate prediction port
    EWMA = "ewma"        # the original forecast + pre-warm behaviour


#: The Vanilla latency percentile taken as each function's SLO (§V-A).
SLO_PERCENTILE = 98.0
#: Weight of the newest window's arrival count in the EWMA forecast.
EWMA_ALPHA = 0.3


@dataclass
class KrakenParameters:
    """Per-function knowledge Kraken is given (from a Vanilla profiling run).

    ``slo_ms`` maps function id to its SLO (98th-pct Vanilla latency);
    ``mean_execution_ms`` maps function id to its observed mean execution
    time, used to size batches: ``batch = max(1, floor(slo / mean_exec))``.
    """

    slo_ms: Dict[str, float]
    mean_execution_ms: Dict[str, float]

    def __post_init__(self) -> None:
        for name, mapping in (("slo_ms", self.slo_ms),
                              ("mean_execution_ms", self.mean_execution_ms)):
            for function_id, value in mapping.items():
                if value <= 0:
                    raise ConfigurationError(
                        f"{name}[{function_id!r}] must be > 0, got {value}")

    @classmethod
    def from_invocations(cls, invocations: Iterable[Invocation]
                         ) -> "KrakenParameters":
        """Derive parameters from a completed (Vanilla) run.

        This is exactly the paper's porting procedure: "we take the
        98-percentile latency of each function obtained by the Vanilla
        strategy as the function SLO for the Kraken strategy".
        """
        latency: Dict[str, SampleStats] = {}
        execution: Dict[str, SampleStats] = {}
        for invocation in invocations:
            function_id = invocation.function.function_id
            latency.setdefault(function_id, SampleStats()).add(
                invocation.end_to_end_ms)
            execution.setdefault(function_id, SampleStats()).add(
                invocation.latency.execution_ms)
        if not latency:
            raise ConfigurationError("no completed invocations to learn from")
        return cls(
            slo_ms={fid: stats.percentile(SLO_PERCENTILE)
                    for fid, stats in latency.items()},
            mean_execution_ms={fid: max(stats.mean, 1e-6)
                               for fid, stats in execution.items()})

    def batch_size(self, function_id: str) -> int:
        """Largest batch whose serial execution still meets the SLO."""
        try:
            slo = self.slo_ms[function_id]
            mean_exec = self.mean_execution_ms[function_id]
        except KeyError:
            raise SchedulingError(
                f"Kraken has no parameters for {function_id!r}") from None
        return max(1, int(math.floor(slo / mean_exec)))


@dataclass
class KrakenConfig:
    """Operational knobs of the Kraken policy."""

    parameters: KrakenParameters
    window_ms: float = 200.0
    mode: KrakenMode = KrakenMode.PERFECT

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ConfigurationError(
                f"window_ms must be > 0, got {self.window_ms}")


class KrakenScheduler(Scheduler):
    """Windowed SLO-aware batching with serial in-container queues."""

    name = "Kraken"
    cpu_discipline = CpuDiscipline.FAIR_SHARE

    def __init__(self, config: KrakenConfig) -> None:
        self.config = config
        self._predictors: Dict[str, Ewma] = {}
        #: Exposed for tests/ablations: containers requested per window.
        self.window_container_counts: List[int] = []

    def start(self, platform: "ServerlessPlatform") -> None:
        platform.env.process(self._serve(platform), name="kraken-loop")

    # -- the window loop ---------------------------------------------------------

    def _serve(self, platform: "ServerlessPlatform"):
        window = DispatchWindow(self.config.window_ms)
        while True:
            if self.config.mode is KrakenMode.EWMA:
                self._prewarm(platform)
            # All requests within the interval count as concurrent (§IV).
            groups = yield from collect_window(
                platform.env, platform.request_queue, window, function_id_of,
                on_open=platform.window_opened,
                on_close=platform.window_closed)
            self._dispatch_window(platform, groups)

    def _dispatch_window(self, platform: "ServerlessPlatform",
                         groups: List[WindowGroup]) -> None:
        metrics = platform.obs.metrics
        metrics.counter("kraken.windows").inc()
        for function_id, invocations, _opened, _closed in groups:
            batch_size = self.config.parameters.batch_size(function_id)
            containers_needed = math.ceil(len(invocations) / batch_size)
            self.window_container_counts.append(containers_needed)
            metrics.histogram("kraken.containers_per_window",
                              edges=SIZE_EDGES).observe(containers_needed)
            if self.config.mode is KrakenMode.EWMA:
                self._observe(function_id, len(invocations))
            for index in range(containers_needed):
                sub_batch = invocations[index * batch_size:
                                        (index + 1) * batch_size]
                platform.env.process(
                    self._run_sub_batch(platform, sub_batch),
                    name=f"kraken-batch:{function_id}:{index}")

    def _run_sub_batch(self, platform: "ServerlessPlatform",
                       sub_batch: List[Invocation]):
        # Same serial-container plan as Vanilla, but the dispatch decision
        # (and its platform CPU work) is paid once per sub-batch.
        yield from run_dispatch_pipeline(
            platform, sub_batch, SERIAL_DISPATCH_PLAN,
            function=sub_batch[0].function)

    # -- EWMA mode ------------------------------------------------------------------

    def _observe(self, function_id: str, count: int) -> None:
        predictor = self._predictors.setdefault(
            function_id, Ewma(alpha=EWMA_ALPHA))
        predictor.observe(count)

    def _prewarm(self, platform: "ServerlessPlatform") -> None:
        """Launch forecast containers ahead of the window's arrivals."""
        for function_id, predictor in self._predictors.items():
            if not predictor.initialized:
                continue
            batch_size = self.config.parameters.batch_size(function_id)
            needed = math.ceil(predictor.value / batch_size)
            shortfall = needed - platform.pool.idle_count(function_id)
            function = platform.functions[function_id]
            if shortfall > 0:
                platform.obs.metrics.counter(
                    "kraken.prewarms").inc(shortfall)
            for _ in range(max(0, shortfall)):
                platform.env.process(
                    self._prewarm_one(platform, function),
                    name=f"kraken-prewarm:{function_id}")

    @staticmethod
    def _prewarm_one(platform: "ServerlessPlatform", function):
        yield platform.launch_work()
        try:
            container, _cold = yield from platform.acquire_container(
                function, concurrency_limit=1, with_multiplexer=False)
        except ColdStartError:
            return  # speculative warm-up; nothing depends on it
        platform.release_container(container)
