"""Analysis: comparisons, figure renderers, report emission."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.analysis.asciiplot": ("render_cdf_plot",),
    "repro.analysis.breakdown": (
        "ComponentSummary", "breakdown_table", "summarize_components"),
    "repro.analysis.compare": (
        "STANDARD_METRICS", "MetricDefinition", "SchedulerComparison",
        "reduction_percent"),
    "repro.analysis.figures": (
        "CDF_PROBABILITIES", "cdf_comparison_table", "client_footprint_table",
        "creation_cost_table", "duration_distribution_table",
        "invocation_pattern_table", "latency_cdf_tables",
        "resource_cost_table", "sharing_vs_monopoly_table"),
    "repro.analysis.report": ("DEFAULT_OUTPUT_DIR", "emit", "emit_lines"),
})

__all__ = [
    "CDF_PROBABILITIES",
    "ComponentSummary",
    "breakdown_table",
    "render_cdf_plot",
    "summarize_components",
    "DEFAULT_OUTPUT_DIR",
    "MetricDefinition",
    "STANDARD_METRICS",
    "SchedulerComparison",
    "cdf_comparison_table",
    "client_footprint_table",
    "creation_cost_table",
    "duration_distribution_table",
    "emit",
    "emit_lines",
    "invocation_pattern_table",
    "latency_cdf_tables",
    "reduction_percent",
    "resource_cost_table",
    "sharing_vs_monopoly_table",
]
