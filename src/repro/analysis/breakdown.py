"""Latency breakdown analysis: where each policy's time goes.

The paper narrates its CDFs component by component; this module reduces an
experiment result to a per-component summary (mean and tail of scheduling,
cold-start, queuing, execution) so tables can show at a glance *why* one
policy beats another — e.g. Vanilla losing on scheduling+cold start while
Kraken loses on queuing.

Since the observability layer landed, breakdowns are **derived from the
invocation trace** whenever one was recorded: every summary is computed
from the typed stage spans (queued / cold-start / dispatched / executing),
after checking the trace invariants — each timeline must be gap-free,
monotone, and its stage durations must sum to the invocation's end-to-end
latency within :data:`~repro.obs.trace.TIME_TOLERANCE_MS`.  Runs without
tracing fall back to the per-invocation latency stamps, which the
integration tests pin to be span-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.stats import SampleStats
from repro.obs.trace import (
    STAGE_ORDER,
    STAGE_TO_COMPONENT,
    InvocationTimeline,
    InvocationTracer,
)
from repro.platformsim.results import ExperimentResult

COMPONENTS = ("scheduling", "cold_start", "queuing", "execution")


@dataclass(frozen=True)
class ComponentSummary:
    """Mean / p50 / p98 of one latency component (milliseconds)."""

    component: str
    mean_ms: float
    p50_ms: float
    p98_ms: float
    share_of_total: float  # fraction of the summed mean latency


class TraceInvariantError(ValueError):
    """A recorded trace violates the span invariants (a platform bug)."""

    def __init__(self, problems: Sequence[str]) -> None:
        preview = "; ".join(problems[:3])
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        super().__init__(f"trace invariants violated: {preview}{more}")
        self.problems = list(problems)


def check_trace_invariants(tracer: InvocationTracer,
                           tolerance_ms: Optional[float] = None) -> None:
    """Raise :class:`TraceInvariantError` on any invalid timeline.

    ``tolerance_ms`` defaults to the simulator's exact-replay tolerance;
    pass :data:`repro.obs.trace.WALL_TIME_TOLERANCE_MS` for traces
    stamped from a real clock (the live gateway) — see the unit contract
    on :class:`repro.obs.trace.Span`.
    """
    if tolerance_ms is None:
        problems = tracer.validate_all()
    else:
        problems = tracer.validate_all(tolerance_ms)
    if problems:
        raise TraceInvariantError(problems)


def _summaries_from_stats(stats: Dict[str, SampleStats]
                          ) -> List[ComponentSummary]:
    total_mean = sum(s.mean for s in stats.values())
    summaries = []
    for component in COMPONENTS:
        component_stats = stats[component]
        summaries.append(ComponentSummary(
            component=component,
            mean_ms=component_stats.mean,
            p50_ms=component_stats.median,
            p98_ms=component_stats.percentile(98.0),
            share_of_total=(component_stats.mean / total_mean
                            if total_mean > 0 else 0.0)))
    return summaries


def summarize_timelines(timelines: Iterable[InvocationTimeline]
                        ) -> List[ComponentSummary]:
    """Per-component summaries derived from span timelines (successful only)."""
    stats: Dict[str, SampleStats] = {c: SampleStats() for c in COMPONENTS}
    count = 0
    for timeline in timelines:
        if timeline.failed:
            continue
        count += 1
        for stage in STAGE_ORDER[:-1]:  # RESPONDING is not a §IV component
            stats[STAGE_TO_COMPONENT[stage]].add(timeline.duration_of(stage))
    if count == 0:
        raise ValueError("no successful timelines to summarise")
    return _summaries_from_stats(stats)


def summarize_components(result: ExperimentResult) -> List[ComponentSummary]:
    """Reduce a result to per-component summaries (successful only).

    Prefers the recorded span trace (validating its invariants first);
    falls back to the invocation latency stamps when tracing was off.
    """
    if result.trace is not None and len(result.trace):
        check_trace_invariants(result.trace)
        return summarize_timelines(result.trace.timelines())
    invocations = result.successful_invocations()
    if not invocations:
        raise ValueError("no successful invocations to summarise")
    stats = {
        "scheduling": SampleStats(i.latency.scheduling_ms
                                  for i in invocations),
        "cold_start": SampleStats(i.latency.cold_start_ms
                                  for i in invocations),
        "queuing": SampleStats(i.latency.queuing_ms for i in invocations),
        "execution": SampleStats(i.latency.execution_ms
                                 for i in invocations),
    }
    return _summaries_from_stats(stats)


def breakdown_table(results: Sequence[ExperimentResult]):
    """``(headers, rows)`` with one row per (scheduler, component)."""
    headers = ["scheduler", "component", "mean_ms", "p50_ms", "p98_ms",
               "share_%"]
    rows: List[List[object]] = []
    for result in results:
        for summary in summarize_components(result):
            rows.append([
                result.scheduler_name,
                summary.component,
                round(summary.mean_ms, 2),
                round(summary.p50_ms, 2),
                round(summary.p98_ms, 2),
                round(summary.share_of_total * 100.0, 1),
            ])
    return headers, rows


# -- resilience view (runs with retries enabled) --------------------------------


def attempt_latency_table(results: Sequence[ExperimentResult]):
    """``(headers, rows)`` contrasting first-attempt and final latencies.

    Under retries an invocation has two stories: what its *first* attempt
    cost (None-safe: a first attempt that died before dispatch has no
    end-to-end latency) and what the caller ultimately experienced
    (first-arrival to final response, backoffs included).  Both are
    reported so retry policies can't silently overwrite the failure's
    latency cost — the final column quantifies the retry tax.
    """
    headers = ["scheduler", "invocations", "goodput_%", "retried",
               "attempts_per_inv",
               "first_attempt_p50_ms", "first_attempt_p99_ms",
               "final_p50_ms", "final_p99_ms", "total_response_p99_ms"]
    rows: List[List[object]] = []
    for result in results:
        first = SampleStats(
            latency for latency in
            (inv.first_attempt_end_to_end_ms
             for inv in result.invocations)
            if latency is not None)
        final = result.latency_stats()
        total = result.total_response_stats()
        rows.append([
            result.scheduler_name,
            len(result.columns),
            round(result.goodput() * 100.0, 2),
            len(result.retried_invocations()),
            round(result.retry_amplification(), 3),
            round(first.median, 1) if first.count else None,
            round(first.percentile(99.0), 1) if first.count else None,
            round(final.median, 1) if final.count else None,
            round(final.percentile(99.0), 1) if final.count else None,
            round(total.percentile(99.0), 1) if total.count else None,
        ])
    return headers, rows
