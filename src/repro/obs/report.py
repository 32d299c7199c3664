"""Self-contained HTML comparison report with inline SVG charts.

``python -m repro report`` renders one static HTML file comparing the four
schedulers on a shared workload.  Everything is inlined — hand-rolled SVG,
a small embedded stylesheet, no third-party JS/CSS, no external fetches —
so the file can be archived next to ``BENCH_sim.json`` and opened years
later.  All floats are formatted with fixed precision and every series is
iterated in sorted order, so a fixed seed produces a byte-identical report.

Charts (one ``<svg>`` element each):

1. **CPU utilization over time** per scheduler (sampled series);
2. **response-latency CDFs** (the report's version of the paper's Fig. 11);
3. **stacked mean stage-breakdown bars** — the same aggregation the
   ``trace critical-path`` table prints, rendered as Fig. 12-style bars;
4. **live-container timeline** per scheduler (sampled series).

The module consumes the plain record dicts of
:func:`repro.obs.trace.tracer_records` + :func:`repro.obs.timeseries.series_records`,
so it renders identically from a live run or a trace file on disk.
"""

from __future__ import annotations

import html
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.cdf import EmpiricalCdf
from repro.obs.critical_path import STAGE_KEYS, analyze

#: Fixed colour palette; index is the scheduler's (or stage's) sorted rank.
PALETTE: Tuple[str, ...] = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#9c755f",
)

#: Chart canvas geometry (pixels).
_WIDTH, _HEIGHT = 640, 300
_MARGIN_LEFT, _MARGIN_RIGHT = 62, 16
_MARGIN_TOP, _MARGIN_BOTTOM = 18, 46

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em auto;
       max-width: 720px; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
figure { margin: 0 0 1.5em 0; }
figcaption { font-size: 0.85em; color: #555; margin-top: 0.3em; }
table { border-collapse: collapse; font-size: 0.85em; }
td, th { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f2f2f2; } td:first-child, th:first-child { text-align: left; }
svg { background: #fff; border: 1px solid #ddd; }
"""


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _color(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


class _Scale:
    """Linear data→pixel mapping for one axis of the chart canvas."""

    def __init__(self, lo: float, hi: float, out_lo: float,
                 out_hi: float) -> None:
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi
        self._span = (hi - lo) or 1.0

    def __call__(self, value: float) -> float:
        frac = (value - self.lo) / self._span
        return self.out_lo + frac * (self.out_hi - self.out_lo)

    def ticks(self, count: int = 5) -> List[float]:
        return [self.lo + i * (self.hi - self.lo) / count
                for i in range(count + 1)]


def _axes(x: _Scale, y: _Scale, x_label: str, y_label: str) -> List[str]:
    parts = [
        f'<line x1="{_fmt(x.out_lo)}" y1="{_fmt(y.out_lo)}" '
        f'x2="{_fmt(x.out_hi)}" y2="{_fmt(y.out_lo)}" stroke="#999"/>',
        f'<line x1="{_fmt(x.out_lo)}" y1="{_fmt(y.out_lo)}" '
        f'x2="{_fmt(x.out_lo)}" y2="{_fmt(y.out_hi)}" stroke="#999"/>',
    ]
    for tick in x.ticks():
        px = x(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y.out_lo)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(y.out_lo + 4)}" stroke="#999"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y.out_lo + 17)}" '
            f'font-size="10" text-anchor="middle" fill="#555">'
            f'{tick:g}</text>')
    for tick in y.ticks(4):
        py = y(tick)
        parts.append(
            f'<line x1="{_fmt(x.out_lo - 4)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(x.out_lo)}" y2="{_fmt(py)}" stroke="#999"/>')
        parts.append(
            f'<text x="{_fmt(x.out_lo - 7)}" y="{_fmt(py + 3)}" '
            f'font-size="10" text-anchor="end" fill="#555">{tick:g}</text>')
    parts.append(
        f'<text x="{_fmt((x.out_lo + x.out_hi) / 2)}" '
        f'y="{_fmt(y.out_lo + 34)}" font-size="11" text-anchor="middle" '
        f'fill="#333">{html.escape(x_label)}</text>')
    parts.append(
        f'<text x="14" y="{_fmt((y.out_lo + y.out_hi) / 2)}" font-size="11" '
        f'text-anchor="middle" fill="#333" transform="rotate(-90 14 '
        f'{_fmt((y.out_lo + y.out_hi) / 2)})">{html.escape(y_label)}</text>')
    return parts


def _legend(labels: Sequence[str], x: float, y: float) -> List[str]:
    parts = []
    for index, label in enumerate(labels):
        py = y + index * 14
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(py - 8)}" width="10" height="10" '
            f'fill="{_color(index)}"/>')
        parts.append(
            f'<text x="{_fmt(x + 14)}" y="{_fmt(py + 1)}" font-size="10" '
            f'fill="#333">{html.escape(label)}</text>')
    return parts


def _svg(parts: Iterable[str]) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
            f'role="img">\n{body}\n</svg>')


def line_chart(series: Mapping[str, Sequence[Tuple[float, float]]],
               x_label: str, y_label: str,
               y_floor: Optional[float] = 0.0) -> str:
    """Multi-line chart; one polyline per (sorted) series key."""
    labels = sorted(series)
    points = [p for label in labels for p in series[label]]
    if not points:
        return _svg(['<text x="320" y="150" text-anchor="middle" '
                     'font-size="12" fill="#777">no data</text>'])
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    y_lo = min(ys) if y_floor is None else min(y_floor, min(ys))
    y_hi = max(ys) if max(ys) > y_lo else y_lo + 1.0
    x = _Scale(min(xs), max(xs) if max(xs) > min(xs) else min(xs) + 1.0,
               _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT)
    y = _Scale(y_lo, y_hi, _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP)
    parts = _axes(x, y, x_label, y_label)
    for index, label in enumerate(labels):
        coords = " ".join(f"{_fmt(x(px))},{_fmt(y(py))}"
                          for px, py in series[label])
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{_color(index)}" stroke-width="1.5"/>')
    parts.extend(_legend(labels, _MARGIN_LEFT + 8, _MARGIN_TOP + 10))
    return _svg(parts)


def stacked_bar_chart(bars: Mapping[str, Mapping[str, float]],
                      segment_order: Sequence[str],
                      y_label: str) -> str:
    """One stacked bar per (sorted) key, segments in *segment_order*."""
    labels = sorted(bars)
    if not labels:
        return _svg(['<text x="320" y="150" text-anchor="middle" '
                     'font-size="12" fill="#777">no data</text>'])
    totals = [sum(bars[label].values()) for label in labels]
    y = _Scale(0.0, max(totals) or 1.0, _HEIGHT - _MARGIN_BOTTOM,
               _MARGIN_TOP)
    plot_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT - 110
    slot = plot_width / len(labels)
    bar_width = slot * 0.6
    parts = _axes(
        _Scale(0.0, float(len(labels)), _MARGIN_LEFT,
               _MARGIN_LEFT + plot_width),
        y, "", y_label)
    for bar_index, label in enumerate(labels):
        px = _MARGIN_LEFT + bar_index * slot + (slot - bar_width) / 2
        base = 0.0
        for segment_index, segment in enumerate(segment_order):
            value = bars[label].get(segment, 0.0)
            if value <= 0:
                continue
            top = y(base + value)
            height = y(base) - top
            parts.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(top)}" '
                f'width="{_fmt(bar_width)}" height="{_fmt(height)}" '
                f'fill="{_color(segment_index)}">'
                f'<title>{html.escape(f"{label} {segment}: {value:.3f}")}'
                f'</title></rect>')
            base += value
        parts.append(
            f'<text x="{_fmt(px + bar_width / 2)}" '
            f'y="{_fmt(_HEIGHT - _MARGIN_BOTTOM + 17)}" font-size="10" '
            f'text-anchor="middle" fill="#333">{html.escape(label)}</text>')
    parts.extend(_legend(list(segment_order),
                         _WIDTH - _MARGIN_RIGHT - 96, _MARGIN_TOP + 10))
    return _svg(parts)


# -- record plumbing -------------------------------------------------------------


def _series_points(records: Iterable[Mapping[str, object]], name: str
                   ) -> Dict[str, List[Tuple[float, float]]]:
    """``scheduler -> [(seconds, value), ...]`` for one series name."""
    out: Dict[str, List[Tuple[float, float]]] = {}
    for record in records:
        if record.get("type") != "series" or record.get("name") != name:
            continue
        scheduler = str(record.get("scheduler", "-"))
        out[scheduler] = [(float(t) / 1000.0, float(v))
                          for t, v in record.get("points", [])]
    return out


def _latency_cdfs(records: Iterable[Mapping[str, object]]
                  ) -> Dict[str, List[Tuple[float, float]]]:
    """Response-latency CDF step series per scheduler, from span records."""
    latencies: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        scheduler = str(record.get("scheduler", "-"))
        invocation = str(record["invocation_id"])
        per = latencies.setdefault(scheduler, {})
        per.setdefault(invocation, []).append(
            float(record["end_ms"]) - float(record["start_ms"]))
    out: Dict[str, List[Tuple[float, float]]] = {}
    for scheduler, per_invocation in latencies.items():
        totals = [sum(stages) for stages in per_invocation.values()]
        cdf = EmpiricalCdf(totals)
        out[scheduler] = [(point.x, point.probability)
                          for point in cdf.series(min(100, len(totals)))
                          ] if len(totals) >= 2 else [(totals[0], 1.0)]
    return out


def _gateway_cdfs(records: Iterable[Mapping[str, object]]
                  ) -> Dict[str, List[Tuple[float, float]]]:
    """Per-policy latency CDFs from ``gateway-cdf`` records."""
    out: Dict[str, List[Tuple[float, float]]] = {}
    for record in records:
        if record.get("type") != "gateway-cdf":
            continue
        policy = str(record.get("policy", "-"))
        out[policy] = [(float(ms), float(frac))
                       for ms, frac in record.get("points", [])]
    return out


def _gateway_series(records: Iterable[Mapping[str, object]], name: str
                    ) -> Dict[str, List[Tuple[float, float]]]:
    """``policy -> [(seconds, value), ...]`` for one gateway series."""
    out: Dict[str, List[Tuple[float, float]]] = {}
    for record in records:
        if record.get("type") != "gateway-series" \
                or record.get("name") != name:
            continue
        policy = str(record.get("policy", "-"))
        out[policy] = [(float(t), float(v))
                       for t, v in record.get("points", [])]
    return out


def _render_gateway_section(records: Sequence[Mapping[str, object]]) -> str:
    """The live-gateway panel, or ``""`` when no gateway records exist.

    Returning the empty string keeps simulation-only reports byte-
    identical to the pre-gateway renderer.
    """
    cells = [record["cell"] for record in records
             if record.get("type") == "gateway-cell"
             and isinstance(record.get("cell"), dict)]
    flips = [record for record in records
             if record.get("type") == "gateway-flip"]
    cdfs = _gateway_cdfs(records)
    goodput = _gateway_series(records, "goodput_rps")
    if not cells and not cdfs and not goodput:
        return ""
    rows = []
    for cell in sorted(cells, key=lambda c: str(c.get("cell"))):
        latency = cell.get("latency_ms", {})
        rows.append(
            f"<tr><td>{html.escape(str(cell.get('cell')))}</td>"
            f"<td>{html.escape(str(cell.get('policy')))}</td>"
            f"<td>{html.escape(str(cell.get('transport')))}</td>"
            f"<td>{cell.get('offered_rps', 0):g}</td>"
            f"<td>{cell.get('goodput_rps', 0):g}</td>"
            f"<td>{float(cell.get('goodput_ratio', 0.0)):.1%}</td>"
            f"<td>{float(latency.get('p50', 0.0)):.1f}</td>"
            f"<td>{float(latency.get('p99', 0.0)):.1f}</td>"
            f"<td>{cell.get('shed', 0)}</td>"
            f"<td>{len(cell.get('mode_flips', []))}</td></tr>")
    table = (
        "<table><thead><tr><th>cell</th><th>policy</th><th>transport</th>"
        "<th>offered rps</th><th>goodput rps</th><th>goodput</th>"
        "<th>p50 ms</th><th>p99 ms</th><th>shed</th><th>flips</th>"
        "</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
        if rows else "<p>No gateway-cell records in input.</p>")
    parts = ["<h2>Live gateway</h2>", table]
    if flips:
        flip_items = "".join(
            f"<li>{html.escape(str(flip.get('policy')))}: "
            f"{html.escape(str(flip.get('from')))} → "
            f"{html.escape(str(flip.get('to')))} "
            f"at request #{flip.get('seq')}</li>"
            for flip in flips)
        parts.append("<p>Degradation-monitor flips:</p>"
                     f"<ul>{flip_items}</ul>")
    charts: List[Tuple[str, str, str]] = []
    if cdfs:
        charts.append(
            ("chart-gateway-cdf", "Gateway response-latency CDF by policy",
             line_chart(cdfs, "latency (ms)", "P(X ≤ x)")))
    if goodput:
        charts.append(
            ("chart-gateway-goodput", "Gateway goodput over time",
             line_chart(goodput, "time (s)", "goodput (rps)")))
    shed = _gateway_series(records, "shed_rps")
    if shed and any(v for points in shed.values() for _, v in points):
        charts.append(
            ("chart-gateway-shed", "Gateway shed rate over time",
             line_chart(shed, "time (s)", "shed (rps)")))
    parts.extend(
        f'<h2>{html.escape(caption)}</h2>\n'
        f'<figure id="{chart_id}">\n{svg}\n'
        f'<figcaption>{html.escape(caption)}</figcaption>\n</figure>'
        for chart_id, caption, svg in charts)
    return "\n".join(parts)


def straggler_line(per_shard: Sequence[Mapping[str, object]],
                   wall_clock_s: float) -> str:
    """One line naming the shard that set a sharded replay's wall clock.

    *per_shard* and *wall_clock_s* are the ``cluster_cells`` row fields
    of the same names.
    """
    slowest = max(per_shard, key=lambda shard: float(
        shard["wall_clock_s"]))  # type: ignore[arg-type]
    shard_wall = float(slowest["wall_clock_s"])  # type: ignore[arg-type]
    share = shard_wall / wall_clock_s if wall_clock_s > 0 else 0.0
    return (f"slowest shard {slowest['shard']}: {shard_wall:g} s of "
            f"{wall_clock_s:g} s wall clock ({share:.1%}), workers "
            f"{slowest['workers']}, {slowest['submitted']} submitted")


def _render_cluster_section(records: Sequence[Mapping[str, object]]) -> str:
    """The sharded-cluster telemetry panel, or ``""`` without records.

    Consumes ``cluster-obs`` records (one per replay cell, carrying the
    shard-merged :class:`~repro.common.streaming.TelemetrySnapshot`
    payload and the cell's ``per_shard`` rows and ``wall_clock_s``).
    Returning the empty string keeps simulation-only reports
    byte-identical to the pre-cluster renderer.
    """
    cluster = [record for record in records
               if record.get("type") == "cluster-obs"
               and isinstance(record.get("obs"), dict)]
    if not cluster:
        return ""
    parts = ["<h2>Cluster telemetry (shard-merged)</h2>"]
    for record in sorted(cluster, key=lambda r: str(r.get("cell"))):
        obs = record["obs"]
        cell = html.escape(str(record.get("cell")))
        shards = record.get("shards")
        caption = (f"{cell} — merged over {shards} shards"
                   if shards is not None else cell)
        parts.append(f"<h3>{html.escape(caption)}</h3>")
        per_shard = record.get("per_shard")
        if per_shard:
            line = straggler_line(
                per_shard, float(record["wall_clock_s"]))  # type: ignore
            parts.append(f'<p class="straggler">{html.escape(line)}</p>')
        scalar_rows = []
        for section in ("counters", "gauges", "clocks"):
            for name, value in sorted(obs.get(section, {}).items()):
                scalar_rows.append(
                    f"<tr><td>{html.escape(name)}</td>"
                    f"<td>{html.escape(section[:-1])}</td>"
                    f"<td>{float(value):g}</td></tr>")
        if scalar_rows:
            parts.append(
                "<table><thead><tr><th>metric</th><th>kind</th>"
                "<th>value</th></tr></thead>"
                f"<tbody>{''.join(scalar_rows)}</tbody></table>")
        hist_rows = []
        for name, hist in sorted(obs.get("histograms", {}).items()):
            count = int(hist.get("count", 0))
            mean = (float(hist["sum"]) / count) if count else 0.0
            hist_rows.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{count}</td>"
                f"<td>{mean:.2f}</td>"
                f"<td>{float(hist['min']):.2f}</td>"
                f"<td>{float(hist['max']):.2f}</td></tr>"
                if count else
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>0</td><td>-</td><td>-</td><td>-</td></tr>")
        if hist_rows:
            parts.append(
                "<table><thead><tr><th>histogram</th><th>count</th>"
                "<th>mean</th><th>min</th><th>max</th></tr></thead>"
                f"<tbody>{''.join(hist_rows)}</tbody></table>")
    return "\n".join(parts)


#: The paper's §V comparison matrix; anything else in a record stream came
#: from the scheduling-policy registry's extended baselines.
CLASSIC_SCHEDULERS = ("Vanilla", "SFS", "Kraken", "FaaSBatch")


def _is_classic(label: str) -> bool:
    """True for the paper's four schedulers (suffixes like "[10ms]" ok)."""
    return label.split("[", 1)[0] in CLASSIC_SCHEDULERS


def _render_extended_section(summaries: Mapping[str, object]) -> str:
    """Row group for registry baselines beyond the paper's four, or ``""``.

    Returning the empty string keeps classic four-scheduler reports
    byte-identical to the pre-registry renderer.
    """
    extended = {name: summary for name, summary in summaries.items()
                if not _is_classic(name)}
    if not extended:
        return ""
    vanilla = next((summary for name, summary in summaries.items()
                    if name.split("[", 1)[0] == "Vanilla"), None)
    rows = []
    for scheduler in sorted(extended):
        summary = extended[scheduler]
        dominant = max(summary.dominant_counts,
                       key=summary.dominant_counts.get)
        delta = ("—" if vanilla is None or vanilla.p99_ms <= 0 else
                 f"{(summary.p99_ms - vanilla.p99_ms) / vanilla.p99_ms:+.1%}")
        rows.append(
            f"<tr><td>{html.escape(scheduler)}</td>"
            f"<td>{summary.count}</td>"
            f"<td>{html.escape(dominant)}</td>"
            f"<td>{summary.dominant_fraction(dominant):.1%}</td>"
            f"<td>{summary.p99_ms:.2f}</td>"
            f"<td>{delta}</td></tr>")
    return (
        "<h2>Extended baselines</h2>\n"
        "<p>Registry policies beyond the paper's §V matrix (selected via "
        "<code>--schedulers</code>); Δp99 compares against Vanilla in the "
        "same run.</p>\n"
        "<table><thead><tr><th>scheduler</th><th>invocations</th>"
        "<th>dominant stage</th><th>share</th><th>p99 ms</th>"
        "<th>Δp99 vs Vanilla</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>")


def render_report(records: Iterable[Mapping[str, object]],
                  title: str = "FaaSBatch scheduler comparison") -> str:
    """Render the full self-contained HTML report from a record stream."""
    records = list(records)
    summaries = analyze(records)
    charts: List[Tuple[str, str, str]] = [
        ("chart-utilization", "Host CPU utilization over time",
         line_chart(_series_points(records, "cpu.utilization"),
                    "time (s)", "utilization")),
        ("chart-latency-cdf", "Response-latency CDF",
         line_chart(_latency_cdfs(records), "latency (ms)", "P(X ≤ x)")),
        ("chart-stage-breakdown", "Mean latency breakdown by stage",
         stacked_bar_chart(
             {name: summary.mean_stage_ms
              for name, summary in summaries.items()},
             STAGE_KEYS, "mean ms")),
        ("chart-containers", "Live containers over time",
         line_chart(_series_points(records, "containers.live"),
                    "time (s)", "containers")),
    ]
    table_rows = []
    for scheduler in sorted(summaries):
        summary = summaries[scheduler]
        dominant = max(summary.dominant_counts,
                       key=summary.dominant_counts.get)
        table_rows.append(
            f"<tr><td>{html.escape(scheduler)}</td>"
            f"<td>{summary.count}</td>"
            f"<td>{html.escape(dominant)}</td>"
            f"<td>{summary.dominant_fraction(dominant):.1%}</td>"
            f"<td>{summary.p99_ms:.2f}</td></tr>")
    figures = "\n".join(
        f'<h2>{html.escape(caption)}</h2>\n'
        f'<figure id="{chart_id}">\n{svg}\n'
        f'<figcaption>{html.escape(caption)}</figcaption>\n</figure>'
        for chart_id, caption, svg in charts)
    table = (
        "<table><thead><tr><th>scheduler</th><th>invocations</th>"
        "<th>dominant stage</th><th>share</th><th>p99 ms</th></tr></thead>"
        f"<tbody>{''.join(table_rows)}</tbody></table>"
        if table_rows else "<p>No span records in input.</p>")
    extended = _render_extended_section(summaries)
    if extended:
        extended = f"\n{extended}"
    gateway = _render_gateway_section(records)
    if gateway:
        gateway = f"\n{gateway}"
    cluster = _render_cluster_section(records)
    if cluster:
        gateway = f"{gateway}\n{cluster}"
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<h2>Critical path</h2>
{table}{extended}
{figures}{gateway}
</body>
</html>
"""


def write_report(path, records: Iterable[Mapping[str, object]],
                 title: str = "FaaSBatch scheduler comparison") -> int:
    """Write the report to *path*; returns the byte count written."""
    document = render_report(records, title=title)
    data = document.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


__all__ = [
    "CLASSIC_SCHEDULERS",
    "PALETTE",
    "line_chart",
    "render_report",
    "stacked_bar_chart",
    "straggler_line",
    "write_report",
]
