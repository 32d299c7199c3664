"""Empirical cumulative distribution functions.

Figures 3, 11 and 12 of the paper are CDF plots.  :class:`EmpiricalCdf` turns
a sample set into an exact step-function CDF that can be queried pointwise,
inverted (quantiles), and rendered as ``(x, F(x))`` series for reports.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Sequence


@dataclass(frozen=True)
class CdfPoint:
    """One point of a rendered CDF series."""

    x: float
    probability: float


class EmpiricalCdf:
    """Exact empirical CDF of a finite sample.

    ``F(x)`` is the fraction of samples ``<= x``.  The class pre-sorts its
    samples once; queries are O(log n).
    """

    def __init__(self, samples: Iterable[float]) -> None:
        self._samples: List[float] = sorted(float(s) for s in samples)
        if not self._samples:
            raise ValueError("cannot build a CDF from zero samples")

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def minimum(self) -> float:
        return self._samples[0]

    @property
    def maximum(self) -> float:
        return self._samples[-1]

    def probability_at(self, x: float) -> float:
        """Return ``P(X <= x)``."""
        rank = bisect.bisect_right(self._samples, x)
        return rank / len(self._samples)

    def quantile(self, p: float) -> float:
        """Return the smallest sample x with ``F(x) >= p`` (p in (0, 1]).

        Nearest rank, no interpolation: the rule of the Fig. 11/12 CDF
        CSVs (:func:`repro.analysis.figures.cdf_comparison_table`), the
        seed-sensitivity CSV and the figure tests' p98 orderings.  Tables,
        summaries, ``BENCH_*.json`` and ``macrobench/expected`` interpolate
        instead (:func:`repro.common.stats.percentile`).
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        index = max(0, min(len(self._samples) - 1,
                           int(p * len(self._samples) + 0.5) - 1))
        # Advance until the CDF really reaches p (guards rounding near ties).
        while index < len(self._samples) - 1 and \
                (index + 1) / len(self._samples) < p:
            index += 1
        return self._samples[index]

    def series(self, points: int = 100) -> List[CdfPoint]:
        """Render the CDF as *points* evenly spaced probability steps.

        Useful for printing figure-like series without emitting one row per
        sample.  Always includes the (max, 1.0) end point.
        """
        if points < 2:
            raise ValueError("need at least 2 points")
        out: List[CdfPoint] = []
        for i in range(1, points + 1):
            p = i / points
            out.append(CdfPoint(x=self.quantile(p), probability=p))
        return out

    def samples(self) -> Sequence[float]:
        """Sorted samples (read-only view)."""
        return tuple(self._samples)
