"""Plain-text table rendering for benchmark reports.

The benchmark harness regenerates each paper table/figure as an aligned ASCII
table printed to stdout (and optionally written to CSV).  No third-party
table library is used; this renderer covers exactly what the reports need:
headers, per-column alignment and float formatting.
"""

from __future__ import annotations

import csv
import io
from typing import List, Sequence


#: How a float cell is rendered.
FLOAT_FORMAT = "{:.2f}"


def format_cell(value: object) -> str:
    """Render one cell: floats via :data:`FLOAT_FORMAT`, everything else
    via str."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return FLOAT_FORMAT.format(value)
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned ASCII table.

    Numeric columns are right-aligned, text columns left-aligned.  The result
    ends with a newline so it can be printed directly.
    """
    text_rows: List[List[str]] = [
        [format_cell(cell) for cell in row] for row in rows
    ]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}")

    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    numeric = [True] * len(headers)
    for row_index, row in enumerate(rows):
        for i, cell in enumerate(row):
            if not isinstance(cell, (int, float)):
                numeric[i] = False

    def align(cell: str, i: int) -> str:
        return cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(align(cell, i) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render the same data as CSV text (for machine-readable artefacts)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()
