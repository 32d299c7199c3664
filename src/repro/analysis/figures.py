"""Figure renderers: turn measured data into the paper's tables/series.

Every renderer returns ``(headers, rows)`` suitable for
:func:`repro.common.tables.render_table` — the benchmark harness prints them
and archives the CSVs.  One renderer per paper artefact keeps the mapping
experiment → code obvious (see DESIGN.md §4).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.cdf import EmpiricalCdf
from repro.platformsim.results import ExperimentResult

Headers = List[str]
Rows = List[List[object]]

#: Probability grid used when printing CDF figures.
CDF_PROBABILITIES = (0.10, 0.25, 0.40, 0.50, 0.75, 0.90, 0.96, 0.98, 1.00)


def cdf_comparison_table(cdfs: Dict[str, EmpiricalCdf]
                         ) -> Tuple[Headers, Rows]:
    """One row per probability, one column per scheduler (Figs. 3/11/12)."""
    names = list(cdfs)
    headers = ["P"] + [f"{name} (ms)" for name in names]
    rows: Rows = []
    for p in CDF_PROBABILITIES:
        rows.append([f"{p:.2f}"]
                    + [round(cdfs[name].quantile(p), 2) for name in names])
    return headers, rows


def latency_cdf_tables(results: Sequence[ExperimentResult]
                       ) -> Dict[str, Tuple[Headers, Rows]]:
    """The three panels of Fig. 11 / Fig. 12 for a set of results.

    Returns tables keyed ``scheduling`` / ``cold_start`` / ``exec_queue``.
    The exec panel includes each scheduler's pure execution CDF plus the
    "Exec+Queue" series for any scheduler with non-zero queuing (the
    paper's purple Kraken curve).
    """
    scheduling = {r.scheduler_name: r.scheduling_cdf() for r in results}
    cold = {r.scheduler_name: r.cold_start_cdf() for r in results}
    execution: Dict[str, EmpiricalCdf] = {}
    for result in results:
        execution[result.scheduler_name] = result.execution_cdf()
        if result.total_queuing_ms() > 1.0:
            execution[f"{result.scheduler_name}: Exec+Queue"] = \
                result.execution_plus_queuing_cdf()
    return {
        "scheduling": cdf_comparison_table(scheduling),
        "cold_start": cdf_comparison_table(cold),
        "exec_queue": cdf_comparison_table(execution),
    }


def resource_cost_table(results_by_window: Dict[float,
                                                Sequence[ExperimentResult]],
                        ) -> Tuple[Headers, Rows]:
    """Figs. 13(a-c) / 14(a-c): resource costs per dispatch interval.

    ``results_by_window`` maps window size (ms) to the results of all
    schedulers at that interval.
    """
    headers = ["window_s", "scheduler", "avg_memory_MB", "containers",
               "avg_cpu_%", "cpu_core_seconds"]
    rows: Rows = []
    for window_ms in sorted(results_by_window):
        for result in results_by_window[window_ms]:
            rows.append([
                window_ms / 1000.0,
                result.scheduler_name,
                round(result.average_memory_mb(), 1),
                result.provisioned_containers,
                round(result.average_cpu_utilization() * 100.0, 2),
                round(result.total_cpu_core_seconds(), 1),
            ])
    return headers, rows


def client_footprint_table(results: Sequence[ExperimentResult]
                           ) -> Tuple[Headers, Rows]:
    """Fig. 14(d): per-invocation storage-client memory footprint."""
    headers = ["scheduler", "clients_created", "invocations",
               "client_MB_per_invocation"]
    rows: Rows = []
    for result in results:
        rows.append([
            result.scheduler_name,
            result.clients_created,
            len(result.columns),
            round(result.client_memory_footprint_mb(), 3),
        ])
    return headers, rows


def duration_distribution_table(fractions: Sequence[float],
                                expected: Sequence[float],
                                labels: Sequence[str]
                                ) -> Tuple[Headers, Rows]:
    """Fig. 9: sampled vs published duration-bucket probabilities."""
    headers = ["duration_range_ms", "paper_fraction", "sampled_fraction"]
    rows: Rows = [[label, round(want, 4), round(got, 4)]
                  for label, want, got in zip(labels, expected, fractions)]
    return headers, rows


def invocation_pattern_table(per_second: Sequence[int]
                             ) -> Tuple[Headers, Rows]:
    """Fig. 10: per-second invocation counts of the replay minute."""
    headers = ["second", "invocations"]
    rows: Rows = [[i, count] for i, count in enumerate(per_second)]
    return headers, rows


def sharing_vs_monopoly_table(series: Dict[int, Dict[str, float]]
                              ) -> Tuple[Headers, Rows]:
    """Fig. 1: execution time under Sharing vs Monopoly per concurrency."""
    headers = ["concurrency", "sharing_ms", "monopoly_ms", "ratio"]
    rows: Rows = []
    for concurrency in sorted(series):
        entry = series[concurrency]
        ratio = entry["sharing_ms"] / entry["monopoly_ms"]
        rows.append([concurrency, round(entry["sharing_ms"], 1),
                     round(entry["monopoly_ms"], 1), round(ratio, 3)])
    return headers, rows


def creation_cost_table(costs: Dict[int, float],
                        unit: str = "ms") -> Tuple[Headers, Rows]:
    """Fig. 4 / Fig. 5: client-creation cost vs in-container concurrency."""
    headers = ["concurrency", f"per_creation_{unit}"]
    rows: Rows = [[c, round(costs[c], 1)] for c in sorted(costs)]
    return headers, rows
