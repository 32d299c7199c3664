"""Function-duration model: the Fig. 9 distribution and the fib N table.

The paper generates CPU-intensive workloads by sampling function durations
from the skewed distribution of the Azure Functions trace (Fig. 9) and
mapping each duration to a Fibonacci input ``N`` such that ``fib(N)`` runs
for about that long (following TABLE I of the SFS paper, its ref. [23]):

=================  ==========  =============================
Duration range      Fraction    fib inputs mapped to it
=================  ==========  =============================
[0, 50) ms          55.13 %     N = 20 … 26
[50, 100) ms         6.96 %     N = 27
[100, 200) ms        5.61 %     N = 28, 29
[200, 400) ms       11.08 %     N = 30
[400, 1550) ms      11.09 %     N = 31, 32, 33
[1550, ∞) ms        10.14 %     N = 34, 35, 36
=================  ==========  =============================

``fib``'s cost grows by the golden ratio per increment of ``N``; the
canonical table below anchors ``N = 26`` at 45 ms ("fib with N between 20
and 26 completes in less than 45 ms", §IV) and scales by φ.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import WorkloadError

GOLDEN_RATIO = (1.0 + 5.0 ** 0.5) / 2.0

#: Duration of ``fib(N)`` in milliseconds on one dedicated core.
FIB_DURATION_MS: Dict[int, float] = {
    n: round(45.0 * GOLDEN_RATIO ** (n - 26), 2) for n in range(20, 37)
}

#: Fig. 9 buckets: (lower_ms, upper_ms or None, probability, fib Ns).
DURATION_BUCKETS: Tuple[Tuple[float, float, float, Tuple[int, ...]], ...] = (
    (0.0, 50.0, 0.5513, (20, 21, 22, 23, 24, 25, 26)),
    (50.0, 100.0, 0.0696, (27,)),
    (100.0, 200.0, 0.0561, (28, 29)),
    (200.0, 400.0, 0.1108, (30,)),
    (400.0, 1550.0, 0.1109, (31, 32, 33)),
    (1550.0, float("inf"), 0.1013, (34, 35, 36)),
)

def fib_duration_ms(n: int) -> float:
    """Modelled runtime of ``fib(n)`` on one dedicated core."""
    try:
        return FIB_DURATION_MS[n]
    except KeyError:
        raise WorkloadError(
            f"fib N must be in [20, 36], got {n}") from None


def bucket_probabilities() -> List[float]:
    """The Fig. 9 probabilities, normalised to sum exactly to 1."""
    raw = [b[2] for b in DURATION_BUCKETS]
    total = sum(raw)
    return [p / total for p in raw]


class DurationSampler:
    """Samples fib inputs so durations follow the Fig. 9 distribution."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._probabilities = bucket_probabilities()

    def sample_fib_n(self) -> int:
        """Draw one fib input N."""
        roll = self._rng.random()
        cumulative = 0.0
        for probability, bucket in zip(self._probabilities, DURATION_BUCKETS):
            cumulative += probability
            if roll <= cumulative:
                return self._rng.choice(bucket[3])
        return DURATION_BUCKETS[-1][3][-1]  # float guard

    def sample_many(self, count: int) -> List[int]:
        """Draw *count* fib inputs."""
        if count < 0:
            raise WorkloadError(f"negative count: {count}")
        return [self.sample_fib_n() for _ in range(count)]


def duration_bucket_index(duration_ms: float) -> int:
    """Return the Fig. 9 bucket a duration falls into."""
    if duration_ms < 0:
        raise WorkloadError(f"negative duration: {duration_ms}")
    for index, (lower, upper, _p, _ns) in enumerate(DURATION_BUCKETS):
        if lower <= duration_ms < upper:
            return index
    return len(DURATION_BUCKETS) - 1


def empirical_bucket_fractions(durations_ms: Sequence[float]) -> List[float]:
    """Histogram a duration sample over the Fig. 9 buckets."""
    if not durations_ms:
        raise WorkloadError("no durations supplied")
    counts = [0] * len(DURATION_BUCKETS)
    for duration in durations_ms:
        counts[duration_bucket_index(duration)] += 1
    return [c / len(durations_ms) for c in counts]
