"""Cross-scheduler comparisons: the paper's reduction percentages.

The abstract and §V report results as "FaaSBatch cuts back X of Vanilla by
N%"; :func:`reduction_percent` and :class:`SchedulerComparison` compute the
same statements from :class:`~repro.platformsim.results.ExperimentResult`
pairs so the benchmark harness can print paper-style claims next to the
measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.common.errors import ReproError
from repro.platformsim.results import ExperimentResult


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage by which *improved* undercuts *baseline* (positive = better).

    ``reduction_percent(100, 8) == 92.0`` — "cuts back ... by 92%".
    """
    if baseline <= 0:
        raise ReproError(f"baseline must be > 0, got {baseline}")
    return (baseline - improved) / baseline * 100.0


@dataclass(frozen=True)
class MetricDefinition:
    """A named scalar extracted from an experiment result."""

    key: str
    label: str
    extract: Callable[[ExperimentResult], float]


#: The metrics the paper compares across schedulers.
STANDARD_METRICS: Sequence[MetricDefinition] = (
    MetricDefinition(
        "p98_latency_ms", "98th-pct invocation latency (ms)",
        lambda r: r.latency_stats().percentile(98.0)),
    MetricDefinition(
        "median_latency_ms", "median invocation latency (ms)",
        lambda r: r.latency_stats().median),
    MetricDefinition(
        "avg_memory_mb", "average system memory (MB)",
        lambda r: r.average_memory_mb()),
    MetricDefinition(
        "containers", "provisioned containers",
        lambda r: float(r.provisioned_containers)),
    MetricDefinition(
        "avg_cpu_pct", "average CPU utilisation (%)",
        lambda r: r.average_cpu_utilization() * 100.0),
)


class SchedulerComparison:
    """Holds one result per scheduler and answers reduction queries."""

    #: The scheduler every reduction is measured for.
    REFERENCE = "FaaSBatch"

    def __init__(self, results: Sequence[ExperimentResult]) -> None:
        reference = self.REFERENCE
        self._results: Dict[str, ExperimentResult] = {}
        for result in results:
            if result.scheduler_name in self._results:
                raise ReproError(
                    f"duplicate result for {result.scheduler_name!r}")
            self._results[result.scheduler_name] = result
        if reference not in self._results:
            raise ReproError(
                f"reference scheduler {reference!r} missing from results "
                f"(have {sorted(self._results)})")
        self.reference = reference

    def result(self, scheduler: str) -> ExperimentResult:
        try:
            return self._results[scheduler]
        except KeyError:
            raise ReproError(f"no result for {scheduler!r}") from None

    def schedulers(self) -> List[str]:
        return list(self._results)

    def reduction(self, scheduler: str, metric: MetricDefinition) -> float:
        """Reduction (%) of *metric* by the reference vs. *scheduler*."""
        baseline = metric.extract(self.result(scheduler))
        improved = metric.extract(self.result(self.reference))
        return reduction_percent(baseline, improved)

    def reduction_table(self) -> List[List[object]]:
        """Rows of ``[metric, baseline, base_value, ref_value, reduction%]``
        over the standard metrics."""
        rows: List[List[object]] = []
        for metric in STANDARD_METRICS:
            for scheduler in self.schedulers():
                if scheduler == self.reference:
                    continue
                rows.append([
                    metric.label,
                    scheduler,
                    round(metric.extract(self.result(scheduler)), 2),
                    round(metric.extract(self.result(self.reference)), 2),
                    round(self.reduction(scheduler, metric), 2),
                ])
        return rows

    REDUCTION_HEADERS = ["metric", "baseline", "baseline_value",
                         "faasbatch_value", "reduction_%"]
