"""HTML report smoke tests: structure, charts, determinism, self-containment."""

from __future__ import annotations

import pytest

from repro.obs.critical_path import STAGE_KEYS
from repro.obs.report import (
    line_chart,
    render_report,
    stacked_bar_chart,
    straggler_line,
    write_report,
)


def _records():
    """A two-scheduler record stream with spans and sampled series."""
    records = []
    for scheduler, execute_ms in (("Alpha", 100.0), ("Beta", 40.0)):
        for index in range(5):
            start = index * 10.0
            for stage, duration in (("queued", 5.0), ("cold-start", 0.0),
                                    ("dispatched", 1.0),
                                    ("executing", execute_ms + index),
                                    ("responding", 0.0)):
                records.append({
                    "type": "span", "invocation_id": f"i{index}",
                    "stage": stage, "start_ms": start,
                    "end_ms": start + duration, "function_id": "f",
                    "scheduler": scheduler})
                start += duration
        for name in ("cpu.utilization", "containers.live"):
            records.append({
                "type": "series", "name": name, "scheduler": scheduler,
                "interval_ms": 1000.0, "base_interval_ms": 1000.0,
                "points": [[0.0, 0.0], [1000.0, 0.7], [2000.0, 0.3]]})
    return records


class TestRenderReport:
    @pytest.fixture()
    def document(self):
        return render_report(_records(), title="test report")

    def test_is_a_complete_html_document(self, document):
        assert document.startswith("<!DOCTYPE html>")
        assert document.rstrip().endswith("</html>")
        assert "<title>test report</title>" in document

    def test_one_svg_per_chart(self, document):
        assert document.count("<svg") == 4
        assert document.count("</svg>") == 4
        for chart_id in ("chart-utilization", "chart-latency-cdf",
                         "chart-stage-breakdown", "chart-containers"):
            assert f'id="{chart_id}"' in document

    def test_self_contained(self, document):
        # No third-party JS/CSS and nothing fetched at view time.
        assert "<script" not in document
        assert "<link" not in document
        assert "src=" not in document
        assert 'href="http' not in document

    def test_schedulers_and_stages_listed(self, document):
        for scheduler in ("Alpha", "Beta"):
            assert scheduler in document
        for stage in STAGE_KEYS:
            assert stage in document

    def test_deterministic(self):
        assert render_report(_records()) == render_report(_records())

    def test_title_is_escaped(self):
        document = render_report(_records(), title="<b>&amp;</b>")
        assert "<b>&amp;" not in document
        assert "&lt;b&gt;" in document

    def test_empty_records_still_render(self):
        document = render_report([])
        assert document.count("<svg") == 4
        assert "No span records" in document

    def test_write_report_returns_byte_count(self, tmp_path):
        path = tmp_path / "report.html"
        written = write_report(path, _records())
        assert written == path.stat().st_size
        assert written > 0


def _gateway_records():
    """A two-policy gateway record stream (loadgen report_records shape)."""
    records = []
    for policy, p99 in (("faasbatch", 40.0), ("vanilla", 900.0)):
        records.append({"type": "gateway-cell", "cell": {
            "cell": policy, "policy": policy, "transport": "inproc",
            "config": {"rps": 1000.0, "duration_s": 5.0, "seed": 13,
                       "arrival": "poisson", "mix": {"echo": 1.0}},
            "offered_rps": 1000.0, "requests": 5000, "completed": 4900,
            "shed": 100, "timeouts": 0, "errors": 0,
            "achieved_rps": 1000.0, "goodput_rps": 980.0,
            "goodput_ratio": 0.98,
            "latency_ms": {"count": 4900, "mean": 12.0, "p50": 10.0,
                           "p95": 25.0, "p99": p99, "max": 2 * p99},
            "lateness_ms": {"count": 5000, "mean": 0.2, "p50": 0.1,
                            "p95": 0.5, "p99": 1.0, "max": 5.0},
            "mode_flips": [], "final_mode": "batch",
            "batches_dispatched": 400, "mean_batch_size": 12.0}})
        records.append({"type": "gateway-cdf", "policy": policy,
                        "points": [[1.0, 0.5], [p99, 0.99],
                                   [2 * p99, 1.0]]})
        for name in ("offered_rps", "goodput_rps", "shed_rps"):
            records.append({"type": "gateway-series", "policy": policy,
                            "name": name,
                            "points": [[0.25, 1000.0], [0.75, 980.0]]})
    records.append({"type": "gateway-flip", "policy": "faasbatch",
                    "seq": 321, "from": "batch", "to": "vanilla"})
    return records


class TestGatewayPanel:
    def test_absent_without_gateway_records(self):
        document = render_report(_records())
        assert "Live gateway" not in document
        assert "chart-gateway-cdf" not in document

    def test_panel_renders_cells_and_charts(self):
        document = render_report(_records() + _gateway_records())
        assert "Live gateway" in document
        for chart_id in ("chart-gateway-cdf", "chart-gateway-goodput",
                         "chart-gateway-shed"):
            assert f'id="{chart_id}"' in document
        for token in ("faasbatch", "vanilla", "98.0%"):
            assert token in document

    def test_flips_listed(self):
        document = render_report(_gateway_records())
        assert "Degradation-monitor flips" in document
        assert "request #321" in document

    def test_gateway_only_report_renders(self):
        document = render_report(_gateway_records())
        assert document.startswith("<!DOCTYPE html>")
        assert "Live gateway" in document
        # The sim charts still render their empty-state placeholders.
        assert "No span records" in document

    def test_deterministic(self):
        stream = _records() + _gateway_records()
        assert render_report(stream) == render_report(stream)

    def test_shed_chart_omitted_when_nothing_shed(self):
        records = [r for r in _gateway_records()
                   if not (r.get("type") == "gateway-series"
                           and r.get("name") == "shed_rps")]
        records.append({"type": "gateway-series", "policy": "faasbatch",
                        "name": "shed_rps",
                        "points": [[0.25, 0.0], [0.75, 0.0]]})
        document = render_report(records)
        assert "chart-gateway-shed" not in document
        assert "chart-gateway-goodput" in document


#: A four-shard azure-full split whose straggler carries half the load.
_PER_SHARD = [
    {"shard": 0, "workers": [0, 4], "submitted": 247500,
     "wall_clock_s": 60.461},
    {"shard": 1, "workers": [1, 5], "submitted": 247500,
     "wall_clock_s": 60.63},
    {"shard": 2, "workers": [2, 6], "submitted": 495000,
     "wall_clock_s": 88.486},
    {"shard": 3, "workers": [3, 7], "submitted": 990000,
     "wall_clock_s": 134.771},
]
_STRAGGLER = ("slowest shard 3: 134.771 s of 140.163 s wall clock (96.2%), "
              "workers [3, 7], 990000 submitted")


class TestClusterPanel:
    def test_straggler_line_names_the_slowest_shard(self):
        assert straggler_line(_PER_SHARD, 140.163) == _STRAGGLER

    def test_panel_renders_the_straggler_line(self):
        record = {"type": "cluster-obs", "cell": "azure-full", "shards": 4,
                  "obs": {"counters": {"platform.completed": 1.0}},
                  "per_shard": _PER_SHARD, "wall_clock_s": 140.163}
        document = render_report([record])
        assert "Cluster telemetry (shard-merged)" in document
        assert f'<p class="straggler">{_STRAGGLER}</p>' in document

    def test_absent_without_cluster_records(self):
        assert "straggler" not in render_report(_records())


class TestCharts:
    def test_line_chart_one_polyline_per_series(self):
        svg = line_chart({"a": [(0.0, 1.0), (1.0, 2.0)],
                          "b": [(0.0, 3.0)]}, "x", "y")
        assert svg.count("<polyline") == 2
        assert svg.count("<svg") == 1

    def test_line_chart_empty_series(self):
        assert "no data" in line_chart({}, "x", "y")

    def test_line_chart_flat_series_does_not_divide_by_zero(self):
        svg = line_chart({"a": [(0.0, 5.0), (1.0, 5.0)]}, "x", "y")
        assert "<polyline" in svg

    def test_stacked_bars_one_rect_per_nonzero_segment(self):
        svg = stacked_bar_chart(
            {"A": {"s1": 1.0, "s2": 2.0}, "B": {"s1": 3.0, "s2": 0.0}},
            ("s1", "s2"), "ms")
        # A has two segments, B one; legend adds two swatch rects.
        assert svg.count("<rect") == 3 + 2

    def test_stacked_bars_empty(self):
        assert "no data" in stacked_bar_chart({}, ("s1",), "ms")


def _classic_records():
    """Span records using only the paper's four scheduler labels."""
    records = []
    for scheduler in ("Vanilla", "SFS", "Kraken", "FaaSBatch"):
        for index in range(3):
            records.append({
                "type": "span", "invocation_id": f"i{index}",
                "stage": "executing", "start_ms": index * 10.0,
                "end_ms": index * 10.0 + 50.0, "function_id": "f",
                "scheduler": scheduler})
    return records


class TestExtendedBaselinesSection:
    def test_absent_for_classic_schedulers(self):
        document = render_report(_classic_records())
        assert "Extended baselines" not in document

    def test_absent_for_suffixed_classic_labels(self):
        records = _classic_records()
        for record in records:
            record["scheduler"] = f"{record['scheduler']}[10ms]"
        assert "Extended baselines" not in render_report(records)

    def test_renders_row_group_for_registry_baselines(self):
        records = _classic_records()
        for index in range(3):
            records.append({
                "type": "span", "invocation_id": f"h{index}",
                "stage": "executing", "start_ms": index * 10.0,
                "end_ms": index * 10.0 + 25.0, "function_id": "f",
                "scheduler": "Hiku"})
        document = render_report(records)
        assert "Extended baselines" in document
        assert "Hiku" in document
        # Hiku halves the latency, so the delta vs Vanilla is negative.
        assert "-50.0%" in document

    def test_delta_dash_without_vanilla(self):
        records = [{
            "type": "span", "invocation_id": "i0", "stage": "executing",
            "start_ms": 0.0, "end_ms": 30.0, "function_id": "f",
            "scheduler": "DataDriven"}]
        document = render_report(records)
        assert "Extended baselines" in document
        assert "—" in document

    def test_no_new_svg_charts(self):
        records = _classic_records()
        records.append({
            "type": "span", "invocation_id": "x", "stage": "executing",
            "start_ms": 0.0, "end_ms": 10.0, "function_id": "f",
            "scheduler": "Hiku"})
        assert render_report(records).count("<svg") == 4
