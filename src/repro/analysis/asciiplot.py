"""Terminal plotting: CDF curves without matplotlib.

The examples and benchmarks run in environments without plotting
libraries; this renderer draws the paper's CDF figure *shapes* (Figs.
3/11/12) directly in the terminal as a log-x panel.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.common.cdf import EmpiricalCdf
from repro.common.errors import ReproError

#: Characters used to distinguish up to six series in one panel.
SERIES_MARKS = "*o+x#@"


def _log_position(value: float, lo: float, hi: float, width: int) -> int:
    """Map *value* onto a log-scaled column in [0, width-1]."""
    if value <= lo:
        return 0
    if value >= hi:
        return width - 1
    fraction = (math.log10(value) - math.log10(lo)) / \
        (math.log10(hi) - math.log10(lo))
    return min(width - 1, max(0, int(round(fraction * (width - 1)))))


def render_cdf_plot(cdfs: Dict[str, EmpiricalCdf],
                    width: int = 72,
                    height: int = 18,
                    unit: str = "ms",
                    title: str = "") -> str:
    """Draw CDFs on a log-x / linear-y character grid.

    Each series is one mark character; the legend maps marks to names.
    Values <= 0 are clamped to the smallest positive sample.
    """
    if not cdfs:
        raise ReproError("no CDFs to plot")
    if len(cdfs) > len(SERIES_MARKS):
        raise ReproError(f"at most {len(SERIES_MARKS)} series supported")
    if width < 20 or height < 5:
        raise ReproError("plot area too small")

    positive_minimums = []
    maximums = []
    for cdf in cdfs.values():
        samples = [s for s in cdf.samples() if s > 0]
        positive_minimums.append(min(samples) if samples else 1e-3)
        maximums.append(max(cdf.maximum, 1e-3))
    lo = max(min(positive_minimums), 1e-3)
    hi = max(maximums)
    if hi <= lo:
        hi = lo * 10.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, cdf) in enumerate(cdfs.items()):
        mark = SERIES_MARKS[index]
        for row in range(height):
            p = 1.0 - row / (height - 1)  # top row = P 1.0
            p = min(max(p, 1.0 / len(cdf)), 1.0)
            x = max(cdf.quantile(p), lo)
            column = _log_position(x, lo, hi, width)
            if grid[row][column] == " ":
                grid[row][column] = mark

    lines: List[str] = []
    if title:
        lines.append(title)
    for row in range(height):
        p = 1.0 - row / (height - 1)
        lines.append(f"{p:4.2f} |" + "".join(grid[row]))
    lines.append("     +" + "-" * width)
    decades = []
    decade = math.floor(math.log10(lo))
    while 10.0 ** decade <= hi * 1.001:
        decades.append(10.0 ** decade)
        decade += 1
    axis = [" "] * width
    for tick in decades:
        column = _log_position(tick, lo, hi, width)
        label = f"{tick:g}"
        for offset, char in enumerate(label):
            if column + offset < width:
                axis[column + offset] = char
    lines.append("      " + "".join(axis) + f" ({unit}, log scale)")
    legend = "   ".join(f"{SERIES_MARKS[i]} {name}"
                        for i, name in enumerate(cdfs))
    lines.append("     legend: " + legend)
    return "\n".join(lines) + "\n"
