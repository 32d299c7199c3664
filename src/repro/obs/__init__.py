"""Observability: span tracing, metrics, and telemetry time-series.

One :class:`Observability` object travels with a platform instance and is
the single publishing point for every layer:

* :class:`~repro.obs.trace.InvocationTracer` — typed per-invocation stage
  spans (queued → cold-start → dispatched → executing → responding),
  reconstructable into per-invocation and per-container timelines;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  deterministically-bucketed histograms published by the platform, the
  warm pool, the docker facade and all four schedulers;
* :class:`~repro.obs.timeseries.TimeSeriesSampler` — a kernel-driven 1 Hz
  sampler turning registered instruments (queue depth, container counts,
  CPU utilization, memory) into bounded fixed-interval series.

All three are pure observers: they never create simulation events, so
enabling them cannot change a simulated result (the determinism tests
assert this).  Downstream, the sampled/traced run feeds the export layer:
:mod:`repro.obs.export` (Perfetto/Chrome trace-event JSON),
:mod:`repro.obs.critical_path` (dominant-stage attribution) and
:mod:`repro.obs.report` (self-contained HTML comparison report).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from repro import _lazy_exports
from repro.obs.metrics import ClockGauge, MetricsRegistry, telemetry_snapshot

if TYPE_CHECKING:
    from repro.common.streaming import TelemetrySnapshot
    from repro.obs.timeseries import TimeSeriesSampler
    from repro.obs.trace import InvocationTracer
    from repro.sim.kernel import Environment

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.common.streaming": ("TelemetrySnapshot",),
    "repro.obs.metrics": (
        "DEFAULT_LATENCY_EDGES_MS", "DEFAULT_SIZE_EDGES", "Counter", "Gauge",
        "Histogram"),
    "repro.obs.prom": (
        "render_gateway_stats", "render_registry", "render_snapshot"),
    "repro.obs.timeseries": (
        "DEFAULT_INTERVAL_MS", "Series", "TimeSeriesSampler",
        "series_records", "write_series_jsonl"),
    "repro.obs.trace": (
        "STAGE_ORDER", "STAGE_TO_COMPONENT", "TIME_TOLERANCE_MS",
        "WALL_TIME_TOLERANCE_MS", "ContainerEvent", "InvocationTimeline",
        "InvocationTracer", "RotatingJsonlWriter", "Span", "Stage",
        "TraceStreamer", "load_jsonl", "read_jsonl", "span_records",
        "tracer_records", "write_jsonl"),
})


class Observability:
    """Tracer + metrics + sampler bundle handed to a platform instance.

    ``tracing`` controls the span tracer and ``sampling`` the time-series
    sampler (both off by default — full-scale runs produce hundreds of
    thousands of spans); metrics are always on, they are a handful of
    counters per event.
    """

    def __init__(self, tracing: bool = False,
                 sampling: bool = False) -> None:
        # The span tracer and the sampler load only when a bundle is built,
        # so a process that never builds one never loads them.
        from repro.obs import timeseries, trace

        self.tracer = trace.InvocationTracer(enabled=tracing)
        self.metrics = MetricsRegistry()
        self.sampler = timeseries.TimeSeriesSampler(enabled=sampling)
        self._bound_env: Optional[Environment] = None

    def bind(self, env: Environment) -> None:
        """Attach *env* as the bundle's clock source (idempotent per env).

        ``sim.time_ms`` is a :class:`ClockGauge` reading ``env.now`` live
        at snapshot time, so the metrics registry installs **no** kernel
        time hook and adds zero per-event cost (it used to hook every
        clock advance).  The sampler, when enabled, installs its own
        boundary-sampling hook; neither performs any simulation work.
        """
        if self._bound_env is env:
            return
        self._bound_env = env
        gauge = self.metrics.get("sim.time_ms")
        if isinstance(gauge, ClockGauge):
            gauge.clock = env
        else:
            self.metrics.install(ClockGauge("sim.time_ms", env))
        self.sampler.install(env)

    def unbind(self) -> None:
        """Keep what was recorded but no path into the bound environment:
        ``sim.time_ms`` freezes and the sampler drops its probes."""
        env, self._bound_env = self._bound_env, None
        gauge = self.metrics.get("sim.time_ms")
        if isinstance(gauge, ClockGauge) and gauge.clock is env:
            gauge.clock = SimpleNamespace(now=env.now)
        self.sampler.uninstall()

    def telemetry(self) -> TelemetrySnapshot:
        """The bundle's mergeable telemetry digest (metrics + series).

        This is what a cluster shard ships to the coordinator: the full
        registry state via :func:`repro.obs.metrics.telemetry_snapshot`
        plus any sampled time-series.  Span traces are *not* included —
        they are unbounded, which is exactly what the bounded-accounting
        contract forbids.
        """
        snap = telemetry_snapshot(self.metrics)
        for name in self.sampler.names():
            record = self.sampler.series(name).to_dict()
            if record["points"]:  # registered-but-unsampled probes are noise
                snap.series[name] = record
        return snap


__all__ = [
    "ClockGauge",
    "ContainerEvent",
    "Counter",
    "DEFAULT_INTERVAL_MS",
    "DEFAULT_LATENCY_EDGES_MS",
    "DEFAULT_SIZE_EDGES",
    "Gauge",
    "Histogram",
    "InvocationTimeline",
    "InvocationTracer",
    "MetricsRegistry",
    "Observability",
    "RotatingJsonlWriter",
    "STAGE_ORDER",
    "STAGE_TO_COMPONENT",
    "Series",
    "Span",
    "Stage",
    "TIME_TOLERANCE_MS",
    "TelemetrySnapshot",
    "TimeSeriesSampler",
    "TraceStreamer",
    "WALL_TIME_TOLERANCE_MS",
    "telemetry_snapshot",
    "load_jsonl",
    "read_jsonl",
    "render_gateway_stats",
    "render_registry",
    "render_snapshot",
    "series_records",
    "span_records",
    "tracer_records",
    "write_jsonl",
    "write_series_jsonl",
]
