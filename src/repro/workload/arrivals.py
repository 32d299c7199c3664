"""Arrival processes: bursts over a uniform background.

The Azure traces show bursty arrival with tight temporal locality (Figs. 2
and 10).  These generators produce arrival timestamp lists (milliseconds)
from seeded RNGs, composable into the paper's workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.common.errors import WorkloadError


@dataclass(frozen=True)
class Burst:
    """A burst of *count* arrivals spread over *width_ms* from *start_ms*."""

    start_ms: float
    width_ms: float
    count: int

    def sample(self, rng: random.Random) -> List[float]:
        if self.count < 0 or self.width_ms <= 0:
            raise WorkloadError(f"invalid burst: {self}")
        return sorted(self.start_ms + rng.random() * self.width_ms
                      for _ in range(self.count))


def bursty_arrivals(duration_ms: float,
                    total: int,
                    bursts: Sequence[Burst],
                    rng: random.Random) -> List[float]:
    """Bursts plus a uniform background over ``[0, duration_ms)``,
    renormalised to exactly *total*.

    The background fills whatever the bursts do not account for; if the
    bursts already exceed *total*, a random subset of burst arrivals is
    kept so the result always has exactly *total* timestamps.
    """
    if total < 0:
        raise WorkloadError(f"negative total: {total}")
    arrivals: List[float] = []
    for burst in bursts:
        if not 0.0 <= burst.start_ms < duration_ms:
            raise WorkloadError(f"burst outside window: {burst}")
        arrivals.extend(burst.sample(rng))
    if len(arrivals) > total:
        arrivals = rng.sample(arrivals, total)
    background = total - len(arrivals)
    for _ in range(background):
        arrivals.append(rng.random() * duration_ms)
    arrivals.sort()
    return arrivals


def per_second_counts(arrivals_ms: Sequence[float],
                      duration_ms: float) -> List[int]:
    """Bucket arrivals in ``[0, duration_ms)`` into per-second counts (the
    Fig. 10 series)."""
    seconds = int(duration_ms // 1000) + (1 if duration_ms % 1000 else 0)
    counts = [0] * seconds
    for arrival in arrivals_ms:
        index = int(arrival // 1000)
        if not 0 <= index < seconds:
            raise WorkloadError(
                f"arrival {arrival} outside [0, {duration_ms})")
        counts[index] += 1
    return counts
