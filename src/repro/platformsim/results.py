"""Experiment results: per-invocation columns and resource costs.

:class:`ExperimentResult` is the unit every benchmark consumes.  It exposes
exactly the paper's metrics:

* the four latency components as empirical CDFs (Figs. 11/12);
* total memory usage, provisioned containers and CPU cost (Figs. 13/14);
* the per-invocation storage-client memory footprint (Fig. 14d).

A finished run keeps its invocations as :class:`InvocationColumns`, arrays
in completion order, so a result costs tens of bytes per invocation rather
than one object each.  Readers that want objects get
:class:`~repro.model.function.Invocation` rows built from the columns on
read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from math import isnan, nan
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.common.cdf import EmpiricalCdf
from repro.common.stats import SampleStats
from repro.model.calibration import Calibration
from repro.model.function import FunctionSpec, Invocation, InvocationState
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.trace import InvocationTracer
from repro.sim.machine import ResourceSample


class InvocationColumns:
    """Final invocation outcomes as columns, in completion order.

    ``stamps`` holds six floats per invocation, the sink's layout: arrival,
    dispatch, execution start, completion, response (NaN while unset) and
    the cold start waited for.  ``codes`` holds four integers: the
    invocation's and its container's ``IdFactory`` numbers (-1 for no
    container), the function's index and 1 if it completed (0 if it
    failed); ``payloads`` keeps each payload.  An invocation that failed,
    was retried or won by a hedge is also kept whole in ``exceptional``,
    so its error and attempt history stay readable.
    """

    STAMPS = ("arrival_ms", "dispatched_ms", "execution_start_ms",
              "completed_ms", "responded_ms", "cold_start_ms")

    def __init__(self, functions: Sequence[FunctionSpec]) -> None:
        self.functions = list(functions)
        self._index = {spec.function_id: index
                       for index, spec in enumerate(self.functions)}
        self.stamps = array("d")
        self.codes = array("i")
        self.payloads: List[object] = []
        self.exceptional: Dict[int, Invocation] = {}

    def __len__(self) -> int:
        return len(self.payloads)

    def append(self, inv: Invocation) -> None:
        """Record one final outcome (a platform completion listener)."""
        if inv.error is not None or inv.attempts > 1 or inv.hedged:
            if inv.error is not None:  # keep no frames of the simulation
                inv.error.__traceback__ = None
            self.exceptional[len(self)] = inv
        stamps = (inv.arrival_ms, inv.dispatched_ms, inv.execution_start_ms,
                  inv.completed_ms, inv.responded_ms, inv.cold_start_ms)
        if None in stamps:
            stamps = tuple(nan if stamp is None else stamp
                           for stamp in stamps)
        self.stamps.extend(stamps)
        container = inv.container_id  # "container-<n>", as row() rebuilds
        self.codes.extend((
            int(inv.invocation_id[4:]),  # "inv-<n>"
            -1 if container is None else int(container[10:]),
            self._index[inv.function.function_id],
            inv.state is InvocationState.COMPLETED))
        self.payloads.append(inv.payload)

    def column(self, name: str) -> array:
        return self.stamps[self.STAMPS.index(name)::len(self.STAMPS)]

    @property
    def succeeded(self) -> array:
        return self.codes[3::4]

    def row(self, index: int) -> Invocation:
        """Invocation *index* (in completion order), built from the columns."""
        kept = self.exceptional.get(index)
        if kept is not None:
            return kept
        stamps = [None if isnan(stamp) else stamp
                  for stamp in self.stamps[6 * index:6 * index + 6]]
        number, container, function, ok = self.codes[4 * index:4 * index + 4]
        return Invocation(
            f"inv-{number}", self.functions[function], self.payloads[index],
            arrival_ms=stamps[0],
            state=(InvocationState.COMPLETED if ok
                   else InvocationState.FAILED),
            container_id=None if container < 0 else f"container-{container}",
            dispatched_ms=stamps[1], cold_start_ms=stamps[5],
            execution_start_ms=stamps[2], completed_ms=stamps[3],
            responded_ms=stamps[4])


@dataclass
class ExperimentResult:
    """Everything measured in one scheduler-vs-workload run."""

    scheduler_name: str
    workload_label: str
    window_ms: Optional[float]
    calibration: Calibration
    columns: InvocationColumns
    provisioned_containers: int
    clients_created: int
    multiplexer_entries: int
    samples: List[ResourceSample]
    completion_ms: float
    #: Live kernel events processed during the run (cancelled timers are
    #: excluded); the perf bench reports events/sec from this.
    kernel_events: int = 0
    #: Observability artefacts of the run.  ``trace`` holds completed span
    #: timelines when tracing was enabled (else an empty, disabled tracer);
    #: ``metrics`` is the platform's registry snapshot source; ``sampler``
    #: carries the sampled telemetry series when sampling was enabled.
    #: None of the three appears in :meth:`to_dict` — they are pure
    #: observers and results must serialise identically without them.
    trace: Optional[InvocationTracer] = None
    metrics: Optional[MetricsRegistry] = None
    sampler: Optional[TimeSeriesSampler] = None
    #: Exact cumulative busy-core-ms read from the CPU engine at run
    #: completion.  The sampler only records on its 1 Hz grid, so the last
    #: sample misses work done between the final grid point and
    #: completion; :meth:`total_cpu_core_seconds` prefers this value and
    #: falls back to the last sample for legacy/deserialised results.
    final_busy_core_ms: Optional[float] = None

    @property
    def invocations(self) -> List[Invocation]:
        """Every final outcome, in completion order, built on read."""
        return list(map(self.columns.row, range(len(self.columns))))

    def _completed(self, *names: str) -> Iterable[tuple]:
        """The named stamp columns, row by row, of completed invocations."""
        return compress(zip(*map(self.columns.column, names)),
                        self.columns.succeeded)

    # -- success / failure -----------------------------------------------------

    def successful_invocations(self) -> List[Invocation]:
        """Invocations that completed normally (latency series use these)."""
        return list(map(self.columns.row, compress(
            range(len(self.columns)), self.columns.succeeded)))

    def failed_invocations(self) -> List[Invocation]:
        """Invocations whose handler raised (isolated per-invocation)."""
        return [inv for inv in self.columns.exceptional.values()
                if inv.state is InvocationState.FAILED]

    @property
    def failure_count(self) -> int:
        return len(self.failed_invocations())

    # -- resilience metrics (chaos benchmark) ----------------------------------

    def goodput(self) -> float:
        """Fraction of invocations that ultimately succeeded, in [0, 1]."""
        if not len(self.columns):
            raise ValueError("no invocations")
        return sum(self.columns.succeeded) / len(self.columns)

    def total_attempts(self) -> int:
        """Execution attempts across all invocations (retries included)."""
        return len(self.columns) + sum(
            inv.attempts - 1 for inv in self.columns.exceptional.values())

    def retry_amplification(self) -> float:
        """Attempts per invocation: 1.0 means no retries were needed."""
        if not len(self.columns):
            raise ValueError("no invocations")
        return self.total_attempts() / len(self.columns)

    def retried_invocations(self) -> List[Invocation]:
        return [inv for inv in self.columns.exceptional.values()
                if inv.attempts > 1]

    def hedged_count(self) -> int:
        """Invocations whose result came from a hedged shadow."""
        return sum(1 for inv in self.columns.exceptional.values()
                   if inv.hedged)

    def total_response_stats(self) -> SampleStats:
        """First-arrival-to-response latency (retries + backoffs included)."""
        return SampleStats(inv.total_response_latency_ms
                           for inv in self.successful_invocations())

    def total_response_cdf(self) -> EmpiricalCdf:
        return EmpiricalCdf(inv.total_response_latency_ms
                            for inv in self.successful_invocations())

    # -- latency series (Figs. 11 / 12) ---------------------------------------
    # Each reads the stamp columns with the float arithmetic of
    # :attr:`Invocation.latency` and :attr:`Invocation.end_to_end_ms`.

    def scheduling_cdf(self) -> EmpiricalCdf:
        return EmpiricalCdf(
            (dispatched - arrival) - cold for arrival, dispatched, cold
            in self._completed("arrival_ms", "dispatched_ms",
                               "cold_start_ms"))

    def cold_start_cdf(self) -> EmpiricalCdf:
        return EmpiricalCdf(cold for (cold,)
                            in self._completed("cold_start_ms"))

    def execution_cdf(self) -> EmpiricalCdf:
        return EmpiricalCdf(completed - started for started, completed
                            in self._completed("execution_start_ms",
                                               "completed_ms"))

    def _queuing(self) -> Iterator[float]:
        return (started - dispatched for dispatched, started
                in self._completed("dispatched_ms", "execution_start_ms"))

    def execution_plus_queuing_cdf(self) -> EmpiricalCdf:
        return EmpiricalCdf(
            (completed - started) + (started - dispatched)
            for dispatched, started, completed in self._completed(
                "dispatched_ms", "execution_start_ms", "completed_ms"))

    def _end_to_end(self) -> Iterator[float]:
        return (completed - arrival for arrival, completed
                in self._completed("arrival_ms", "completed_ms"))

    def end_to_end_cdf(self) -> EmpiricalCdf:
        return EmpiricalCdf(self._end_to_end())

    def response_latency_cdf(self) -> EmpiricalCdf:
        """Arrival-to-response latency — what callers experience.

        Differs from :meth:`end_to_end_cdf` under batch semantics: the
        response waits for the whole group unless the early-return
        extension is on.
        """
        return EmpiricalCdf(responded - arrival for arrival, responded
                            in self._completed("arrival_ms", "responded_ms"))

    def latency_stats(self) -> SampleStats:
        return SampleStats(self._end_to_end())

    def total_queuing_ms(self) -> float:
        return sum(self._queuing())

    # -- resource costs (Figs. 13 / 14) ------------------------------------------

    def _active_samples(self) -> Sequence[ResourceSample]:
        """Samples within the active run window [0, completion]."""
        active = [s for s in self.samples if s.time_ms <= self.completion_ms]
        if not active:
            raise ValueError("no resource samples within the run window")
        return active

    def average_memory_mb(self) -> float:
        """Mean sampled system memory (Figs. 13a/14a)."""
        active = self._active_samples()
        return sum(s.memory_mb for s in active) / len(active)

    def peak_memory_mb(self) -> float:
        return max(s.memory_mb for s in self._active_samples())

    def average_cpu_utilization(self) -> float:
        """Mean sampled CPU utilisation in [0, 1] (Figs. 13c/14c)."""
        active = self._active_samples()
        return sum(s.cpu_utilization for s in active) / len(active)

    def total_cpu_core_seconds(self) -> float:
        """Total computation performed during the run, in core-seconds."""
        if self.final_busy_core_ms is not None:
            return self.final_busy_core_ms / 1000.0
        return self._active_samples()[-1].cpu_busy_core_ms / 1000.0

    def client_memory_footprint_mb(self) -> float:
        """Average client-creation memory charged per invocation (Fig. 14d)."""
        if not len(self.columns):
            raise ValueError("no invocations")
        total_mb = (self.clients_created * self.calibration.client_memory_mb
                    + self.multiplexer_entries
                    * self.calibration.multiplexer_entry_mb)
        return total_mb / len(self.columns)

    def invocations_per_container(self) -> float:
        """How many invocations one provisioned container served on average."""
        if self.provisioned_containers == 0:
            raise ValueError("no containers provisioned")
        return len(self.columns) / self.provisioned_containers

    # -- export ----------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Deterministic dump of the run's metrics registry (may be empty)."""
        return self.metrics.snapshot() if self.metrics is not None else {}

    def to_dict(self) -> dict:
        """A JSON-serialisable archive of the run (per-invocation rows)."""
        return {
            "scheduler": self.scheduler_name,
            "workload": self.workload_label,
            "window_ms": self.window_ms,
            "provisioned_containers": self.provisioned_containers,
            "clients_created": self.clients_created,
            "multiplexer_entries": self.multiplexer_entries,
            "completion_ms": self.completion_ms,
            "failures": self.failure_count,
            "invocations": [
                {
                    "id": inv.invocation_id,
                    "function": inv.function.function_id,
                    "arrival_ms": inv.arrival_ms,
                    "scheduling_ms": inv.latency.scheduling_ms,
                    "cold_start_ms": inv.latency.cold_start_ms,
                    "queuing_ms": inv.latency.queuing_ms,
                    "execution_ms": inv.latency.execution_ms,
                    "state": inv.state.value,
                }
                for inv in self.invocations
            ],
            "samples": [
                {"time_ms": s.time_ms, "memory_mb": s.memory_mb,
                 "cpu_utilization": s.cpu_utilization}
                for s in self.samples
            ],
        }

    def to_json(self, path) -> None:
        """Write :meth:`to_dict` to *path* as JSON."""
        import json
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1)

    # -- summary row -----------------------------------------------------------------

    def summary_row(self) -> List[object]:
        """The standard report row used by the benchmark tables."""
        stats = self.latency_stats()
        return [
            self.scheduler_name,
            len(self.columns),
            self.provisioned_containers,
            round(self.average_memory_mb(), 1),
            round(self.average_cpu_utilization() * 100.0, 2),
            round(stats.median, 1),
            round(stats.percentile(98.0), 1),
            round(self.completion_ms / 1000.0, 2),
        ]

    SUMMARY_HEADERS = [
        "scheduler", "invocations", "containers", "avg_mem_MB",
        "avg_cpu_%", "p50_latency_ms", "p98_latency_ms", "makespan_s",
    ]
