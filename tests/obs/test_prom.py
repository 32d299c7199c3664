"""Prometheus text exposition: golden pins and format invariants."""

from __future__ import annotations

from repro.obs import ClockGauge, MetricsRegistry
from repro.obs.prom import (
    render_gateway_stats,
    render_registry,
    render_snapshot,
)


class FakeClock:
    now = 1234.5


def golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("pool.warm_hits").inc(7)
    registry.gauge("pool.idle").set(3)
    registry.install(ClockGauge("sim.time_ms", FakeClock()))
    histogram = registry.histogram("platform.e2e_latency_ms",
                                   edges=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 5.0, 50.0, 500.0):
        histogram.observe(value)
    return registry


#: The full-page pin: names folded to the Prometheus charset, metrics in
#: sorted order, cumulative buckets with half-open upper edges as ``le``,
#: and the unbounded tail folded into ``+Inf``.
GOLDEN = """\
# HELP platform_e2e_latency_ms histogram platform.e2e_latency_ms
# TYPE platform_e2e_latency_ms histogram
platform_e2e_latency_ms_bucket{le="1"} 1
platform_e2e_latency_ms_bucket{le="10"} 3
platform_e2e_latency_ms_bucket{le="100"} 4
platform_e2e_latency_ms_bucket{le="+Inf"} 5
platform_e2e_latency_ms_sum 560.5
platform_e2e_latency_ms_count 5
# HELP pool_idle gauge pool.idle
# TYPE pool_idle gauge
pool_idle 3
# HELP pool_warm_hits counter pool.warm_hits
# TYPE pool_warm_hits counter
pool_warm_hits 7
# HELP sim_time_ms gauge sim.time_ms
# TYPE sim_time_ms gauge
sim_time_ms 1234.5
"""


class TestGolden:
    def test_registry_exposition_is_pinned(self):
        assert render_registry(golden_registry()) == GOLDEN

    def test_snapshot_exposition_matches_registry(self):
        registry = golden_registry()
        assert render_snapshot(registry.snapshot()) \
            == render_registry(registry)

    def test_rendering_is_deterministic(self):
        pages = {render_registry(golden_registry()) for _ in range(3)}
        assert len(pages) == 1


def parse_exposition(text: str):
    """Minimal 0.0.4 parser: {name: {labels-string: value}}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        if "{" in name_labels:
            name, labels = name_labels.split("{", 1)
            labels = "{" + labels
        else:
            name, labels = name_labels, ""
        float(value)  # must parse
        samples.setdefault(name, {})[labels] = value
    return samples


class TestFormatInvariants:
    def test_every_line_parses(self):
        samples = parse_exposition(render_registry(golden_registry()))
        assert samples["pool_warm_hits"][""] == "7"
        assert samples["platform_e2e_latency_ms_count"][""] == "5"

    def test_buckets_are_cumulative_and_end_at_inf(self):
        samples = parse_exposition(render_registry(golden_registry()))
        buckets = samples["platform_e2e_latency_ms_bucket"]
        counts = [int(v) for v in buckets.values()]
        assert counts == sorted(counts)
        assert buckets['{le="+Inf"}'] == "5"

    def test_invalid_chars_fold_to_underscore(self):
        registry = MetricsRegistry()
        registry.counter("weird-name.with/slash").inc()
        page = render_registry(registry)
        assert "weird_name_with_slash 1" in page


#: Snapshot-rendered histograms emit only observed edges (cumulative
#: values stay exact at each); the unbounded tail folds into ``+Inf``.
GOLDEN_TAIL = """\
# HELP gateway_runners_started platform runner threads ever started
# TYPE gateway_runners_started gauge
gateway_runners_started 3
# HELP gateway_runners_idle platform runner threads parked
# TYPE gateway_runners_idle gauge
gateway_runners_idle 2
# HELP gateway_stage_execute_ms histogram gateway.stage.execute_ms
# TYPE gateway_stage_execute_ms histogram
gateway_stage_execute_ms_bucket{le="0.05"} 1
gateway_stage_execute_ms_bucket{le="0.1"} 3
gateway_stage_execute_ms_bucket{le="10"} 4
gateway_stage_execute_ms_bucket{le="+Inf"} 4
gateway_stage_execute_ms_sum 3.17
gateway_stage_execute_ms_count 4
# HELP gateway_stage_window_wait_ms histogram gateway.stage.window_wait_ms
# TYPE gateway_stage_window_wait_ms histogram
gateway_stage_window_wait_ms_bucket{le="+Inf"} 1
gateway_stage_window_wait_ms_sum 12
gateway_stage_window_wait_ms_count 1
"""


class TestGatewayStats:
    def stats(self) -> dict:
        return {
            "mode": "batch",
            "platform_state": "running",
            "policy": "faasbatch",
            "window_seconds": 0.02,
            "uptime_s": 12.5,
            "requests_total": 10,
            "responses_by_status": {"200": 9, "429": 1},
            "batches_dispatched": 4,
            "batched_requests": 9,
            "queue_depths": {"echo": 2},
            "admission": {"inflight": 1, "admitted": 10,
                          "shed": {"queue_depth": 1},
                          "max_inflight": 64, "max_queue_depth": 32,
                          "shed_policy": "newest"},
            "degradation": {"enabled": True, "mode": "batch",
                            "flips": [{"seq": 5}],
                            "batch_p99_ms": 12.5, "vanilla_p99_ms": 30.0,
                            "samples": {"batch": 9}},
        }

    def test_stats_page_parses_and_carries_info_metric(self):
        page = render_gateway_stats(self.stats())
        samples = parse_exposition(page)
        assert samples["gateway_requests_total"][""] == "10"
        assert samples["gateway_responses_total"]['{status="429"}'] == "1"
        assert samples["gateway_shed_total"]['{cause="queue_depth"}'] == "1"
        assert samples["gateway_uptime_seconds"][""] == "12.5"
        assert samples["gateway_mode_flips_total"][""] == "1"
        info_labels = next(iter(samples["gateway_info"]))
        assert 'mode="batch"' in info_labels
        assert 'policy="faasbatch"' in info_labels

    def test_stage_histograms_and_runner_gauges_are_pinned(self):
        """The tail of the page: runner gauges, then the stage split."""
        stages = MetricsRegistry()
        for stage, samples in (("execute", (0.03, 0.07, 0.07, 3.0)),
                               ("window_wait", (12.0,))):
            histogram = stages.histogram(f"gateway.stage.{stage}_ms",
                                         edges=(0.05, 0.1, 1.0, 10.0))
            for value in samples:
                histogram.observe(value)
        stats = self.stats()
        stats.update(runners_started=3, runners_idle=2,
                     stages=stages.snapshot())
        page = render_gateway_stats(stats)
        assert page.startswith(render_gateway_stats(self.stats())[:-1])
        assert page[len(render_gateway_stats(self.stats())):] == GOLDEN_TAIL

    def test_label_escaping(self):
        stats = self.stats()
        stats["policy"] = 'with"quote\\and\nnewline'
        page = render_gateway_stats(stats)
        assert '\\"quote' in page and "\\\\and" in page and "\\n" in page


class TestScalarFormatting:
    def test_integral_floats_render_as_integers(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3.0)
        assert "g 3\n" in render_registry(registry)

    def test_empty_registry_renders_empty_page(self):
        assert render_registry(MetricsRegistry()) == ""
