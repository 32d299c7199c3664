"""Statistics helpers: exact sample stats, percentiles and EWMA.

The evaluation in the paper reports percentiles (e.g. the 98th-percentile SLO
used to port Kraken), CDFs, and EWMA-based workload prediction.  These small,
dependency-free helpers back all of that.  Samples sets in this reproduction
are at most tens of thousands of points, so exact (sorting) percentiles are
both affordable and preferable to approximate sketches.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


class SampleStats:
    """Accumulates scalar samples and answers exact summary queries."""

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._values: List[float] = []
        self._sorted = True
        for value in values:
            self.add(value)

    # -- accumulation -----------------------------------------------------

    def add(self, value: float) -> None:
        """Record one sample."""
        if math.isnan(value):
            raise ValueError("NaN samples are not allowed")
        self._values.append(float(value))
        self._sorted = False

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        for value in values:
            self.add(value)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        self._require_samples()
        return self.total / len(self._values)

    @property
    def minimum(self) -> float:
        self._require_samples()
        return min(self._values)

    @property
    def maximum(self) -> float:
        self._require_samples()
        return max(self._values)

    def percentile(self, q: float) -> float:
        """Exact percentile with linear interpolation, q in [0, 100]."""
        self._require_samples()
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high or ordered[low] == ordered[high]:
            # The equality case also guards interpolation between equal
            # subnormals, where a*(1-f) + a*f can underflow below a.
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def values(self) -> Sequence[float]:
        """Return the recorded samples (insertion order, read-only copy)."""
        return tuple(self._values)

    # -- internals -----------------------------------------------------------

    def _ordered(self) -> List[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    def _require_samples(self) -> None:
        if not self._values:
            raise ValueError("no samples recorded")


class Ewma:
    """Exponentially weighted moving average, as used by Kraken's predictor.

    ``alpha`` is the weight of the newest observation; the classic update is
    ``value = alpha * sample + (1 - alpha) * value``.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: float | None = None

    @property
    def value(self) -> float:
        if self._value is None:
            raise ValueError("EWMA has no observations yet")
        return self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def observe(self, sample: float) -> float:
        """Fold one observation in and return the updated average."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = self.alpha * sample + (1.0 - self.alpha) * self._value
        return self._value


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """One-shot exact percentile of a non-empty sequence.

    :meth:`SampleStats.percentile`'s linear interpolation between the
    closest ranks (rank ``q/100 * (n - 1)`` of the sorted sample).  This
    rule serves the breakdown and attempt tables, ``repro compare``'s
    summary rows, the headline reductions, the sink's exact summaries (so
    every ``BENCH_*.json`` latency), ``macrobench/expected`` and the live
    tier (``loadgen``, the degradation monitor).  It is one of two exact
    rules: the Fig. 11/12 CDF CSVs, the seed-sensitivity CSV and the
    figure tests' p98 orderings use nearest rank instead
    (:meth:`repro.common.cdf.EmpiricalCdf.quantile`).
    """
    stats = SampleStats(values)
    return stats.percentile(q)
