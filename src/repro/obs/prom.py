"""Prometheus text exposition for the metrics registry and gateway stats.

The gateway's ``GET /metrics`` serves a JSON snapshot by default (that
contract predates this module and stays byte-identical); a scraper that
sends ``Accept: text/plain`` or ``?format=prometheus`` gets the same data
rendered in the Prometheus text exposition format (version 0.0.4) instead,
so a stock Prometheus server can scrape the gateway with zero glue.

Two inputs are supported:

* a live :class:`~repro.obs.metrics.MetricsRegistry` — full fidelity:
  histogram buckets are re-emitted cumulatively (``le`` convention) from
  the raw per-bucket counts, including empty buckets;
* a *snapshot dict* (the JSON shape ``MetricsRegistry.snapshot()``
  produces, possibly after a JSON round-trip) — bucket range labels are
  parsed back into ``le`` edges; empty buckets were dropped by the
  snapshot, so only observed edges are emitted (cumulative values stay
  exact at every emitted edge).

Mapping notes
-------------
* Dot-namespaced names (``platform.cold_start_ms``) become underscore
  names (``platform_cold_start_ms``); any other invalid character is
  folded to ``_`` too.
* Our histogram buckets are half-open ``[a, b)`` while Prometheus ``le``
  is inclusive; the right edge is exposed as the ``le`` bound, so a
  sample exactly on an edge may be attributed one bucket lower than a
  native Prometheus client would.  Count/sum/min/max are exact.
* Output is deterministic: metrics sort by name, labels by key — byte
  -identical across runs, so the golden test can pin the full page.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple, Union

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "render_gateway_stats",
    "render_registry",
    "render_snapshot",
]

#: Content type of the text exposition format this module renders.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_VALID = set("abcdefghijklmnopqrstuvwxyz"
             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _name(name: str) -> str:
    """Fold a dot-namespaced metric name into a Prometheus-valid one."""
    out = "".join(ch if ch in _VALID else "_" for ch in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _value(value: Union[int, float, None]) -> str:
    """Render a sample value; Prometheus accepts Go-style floats."""
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _label(value: object) -> str:
    """Escape one label value per the text-format quoting rules."""
    text = str(value)
    return (text.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n"))


def _edge(edge: float) -> str:
    """``le`` label for a finite bucket edge (matches ``:g`` labels)."""
    return format(edge, "g")


def _header(name: str, kind: str, help_text: str) -> List[str]:
    return [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]


def _histogram_lines(name: str, edges: List[Optional[float]],
                     counts: List[int], total: int, total_sum: float,
                     help_text: str) -> List[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines.

    ``edges[i]`` is the inclusive upper bound of ``counts[i]`` (``None``
    means the unbounded tail, folded into ``+Inf``).
    """
    lines = _header(name, "histogram", help_text)
    running = 0
    for edge, count in zip(edges, counts):
        running += count
        if edge is None:
            continue
        lines.append(f'{name}_bucket{{le="{_edge(edge)}"}} {running}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {total}')
    lines.append(f"{name}_sum {_value(total_sum)}")
    lines.append(f"{name}_count {total}")
    return lines


# -- registry / snapshot rendering -------------------------------------------------


def render_registry(registry: MetricsRegistry) -> str:
    """Render a live registry; every bucket edge is emitted, even empty."""
    lines: List[str] = []
    for raw in registry.names():
        metric = registry.get(raw)
        name = _name(raw)
        if isinstance(metric, Histogram):
            # counts[0] is the underflow bucket: cumulative at the first
            # edge already includes it, matching le semantics.
            edges: List[Optional[float]] = list(metric.edges) + [None]
            lines.extend(_histogram_lines(
                name, edges, metric.counts, metric.count, metric.sum,
                f"histogram {raw}"))
        elif isinstance(metric, Counter):
            lines.extend(_header(name, "counter", f"counter {raw}"))
            lines.append(f"{name} {_value(metric.value)}")
        else:  # Gauge and subclasses (ClockGauge reads its clock live)
            lines.extend(_header(name, "gauge", f"gauge {raw}"))
            lines.append(f"{name} {_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_bucket_label(label: str) -> Optional[float]:
    """Upper edge of a snapshot bucket label; None for the ``inf`` tail.

    Labels come from :meth:`Histogram.bucket_rows`:
    ``(-inf, 1)`` · ``[1, 2)`` · ``[300000, inf)``.
    """
    inner = label.strip("([])")
    upper = inner.split(",")[1].strip().rstrip(")")
    if upper == "inf":
        return None
    return float(upper)


def render_snapshot(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """Render a ``MetricsRegistry.snapshot()``-shaped dict."""
    lines: List[str] = []
    for raw in sorted(snapshot):
        data = snapshot[raw]
        name = _name(raw)
        kind = data.get("type")
        if kind == "histogram":
            buckets: List[Tuple[str, int]] = list(data.get("buckets") or [])
            edges = [_parse_bucket_label(label) for label, _ in buckets]
            counts = [int(count) for _, count in buckets]
            lines.extend(_histogram_lines(
                name, edges, counts, int(data["count"]),
                float(data["sum"]), f"histogram {raw}"))
        elif kind == "counter":
            lines.extend(_header(name, "counter", f"counter {raw}"))
            lines.append(f"{name} {_value(data['value'])}")
        else:
            lines.extend(_header(name, "gauge", f"gauge {raw}"))
            lines.append(f"{name} {_value(data['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- gateway stats rendering -------------------------------------------------------


def _scalar(lines: List[str], name: str, kind: str, help_text: str,
            value: Union[int, float, None]) -> None:
    if value is None:
        return
    lines.extend(_header(name, kind, help_text))
    lines.append(f"{name} {_value(value)}")


def render_gateway_stats(stats: Mapping[str, object]) -> str:
    """Render ``Gateway.stats()`` (admission + degradation included).

    String-valued facts (policy, window policy, platform state, dispatch
    mode) collapse into one ``gateway_info`` series with value 1, the
    standard Prometheus idiom for build/config metadata.  The page ends
    with the runner-pool gauges and the per-request stage histograms
    (``stats["stages"]``, a registry snapshot).
    """
    lines: List[str] = []
    info = {
        "mode": (stats.get("degradation") or {}).get("mode"),
        "platform_state": stats.get("platform_state"),
        "policy": stats.get("policy"),
        "window_policy": stats.get("window_policy"),
    }
    pairs = ",".join(f'{key}="{_label(value)}"'
                     for key, value in sorted(info.items())
                     if value is not None)
    lines.extend(_header("gateway_info", "gauge",
                         "gateway configuration and state"))
    lines.append(f"gateway_info{{{pairs}}} 1")

    _scalar(lines, "gateway_requests_total", "counter",
            "requests accepted by the gateway", stats.get("requests_total"))
    responses = stats.get("responses_by_status") or {}
    if responses:
        lines.extend(_header("gateway_responses_total", "counter",
                             "responses by HTTP status"))
        for status in sorted(responses):
            lines.append(f'gateway_responses_total{{status='
                         f'"{_label(status)}"}} '
                         f"{_value(responses[status])}")
    _scalar(lines, "gateway_batches_dispatched_total", "counter",
            "dispatch groups handed to the platform",
            stats.get("batches_dispatched"))
    _scalar(lines, "gateway_batched_requests_total", "counter",
            "requests that rode a batch window",
            stats.get("batched_requests"))
    _scalar(lines, "gateway_window_seconds", "gauge",
            "configured dispatch window", stats.get("window_seconds"))
    _scalar(lines, "gateway_uptime_seconds", "gauge",
            "seconds since the gateway started", stats.get("uptime_s"))

    depths = stats.get("queue_depths") or {}
    if depths:
        lines.extend(_header("gateway_queue_depth", "gauge",
                             "open-window queue depth per function"))
        for function in sorted(depths):
            lines.append(f'gateway_queue_depth{{function='
                         f'"{_label(function)}"}} '
                         f"{_value(depths[function])}")

    admission = stats.get("admission") or {}
    _scalar(lines, "gateway_inflight", "gauge",
            "requests currently admitted", admission.get("inflight"))
    _scalar(lines, "gateway_admitted_total", "counter",
            "requests admitted", admission.get("admitted"))
    shed = admission.get("shed") or {}
    if shed:
        lines.extend(_header("gateway_shed_total", "counter",
                             "requests shed by cause"))
        for cause in sorted(shed):
            lines.append(f'gateway_shed_total{{cause="{_label(cause)}"}} '
                         f"{_value(shed[cause])}")
    _scalar(lines, "gateway_max_inflight", "gauge",
            "admission inflight bound", admission.get("max_inflight"))
    _scalar(lines, "gateway_max_queue_depth", "gauge",
            "admission queue-depth bound", admission.get("max_queue_depth"))

    degradation = stats.get("degradation") or {}
    enabled = degradation.get("enabled")
    _scalar(lines, "gateway_degradation_enabled", "gauge",
            "1 when the degradation monitor is active",
            None if enabled is None else int(bool(enabled)))
    flips = degradation.get("flips")
    _scalar(lines, "gateway_mode_flips_total", "counter",
            "dispatch-mode flips recorded",
            None if flips is None else len(flips))
    _scalar(lines, "gateway_batch_p99_ms", "gauge",
            "sliding-window p99 in batch mode",
            degradation.get("batch_p99_ms"))
    _scalar(lines, "gateway_vanilla_p99_ms", "gauge",
            "sliding-window p99 in vanilla mode",
            degradation.get("vanilla_p99_ms"))
    _scalar(lines, "gateway_runners_started", "gauge",
            "platform runner threads ever started",
            stats.get("runners_started"))
    _scalar(lines, "gateway_runners_idle", "gauge",
            "platform runner threads parked",
            stats.get("runners_idle"))
    return "\n".join(lines) + "\n" + render_snapshot(
        stats.get("stages") or {})
