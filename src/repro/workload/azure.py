"""Azure Functions trace synthesiser.

The paper replays "the total of 800 invocations made within 1 minute (from
22:10 to 22:11) of the Azure Day 13 trace" (Fig. 10) for the CPU workload
and the first 400 of those for the I/O workload, and motivates container
sharing with the daily invocation patterns of three hot functions (Fig. 2).

We do not ship the (multi-GB) Azure trace; instead this module synthesises
arrival streams with the same published characteristics:

* :func:`replay_minute_arrivals` — 800 arrivals in 60 s, strongly bursty
  (a few sub-second spikes carrying most of the volume over a light
  background), deterministic per seed.
* :class:`DailyPatternGenerator` — per-minute invocation counts over 24 h
  for "hot" functions: long quiet stretches punctuated by dense bursts,
  >1000 invocations/day, tight temporal locality (Fig. 2's shape).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.common.errors import WorkloadError
from repro.common.units import MINUTE, SECOND
from repro.workload.arrivals import Burst, bursty_arrivals

#: The replayed slice of the trace: 800 invocations over one minute.
REPLAY_TOTAL_INVOCATIONS = 800
REPLAY_DURATION_MS = MINUTE
#: The I/O experiments use only the first 400 invocations (§IV: the full
#: burst drove the worker VM to downtime under the baseline policies).
IO_REPLAY_INVOCATIONS = 400


def replay_minute_arrivals(seed: int = 13,
                           total: int = REPLAY_TOTAL_INVOCATIONS,
                           ) -> List[float]:
    """Synthesise the Fig. 10 replay minute: bursty, *total* arrivals.

    Roughly 80 % of the volume arrives in a handful of sub-second to
    few-second spikes; the rest is a light background — matching the
    paper's description of the pattern as "a strong indicator of the
    burstiness of serverless functions".
    """
    if total <= 0:
        raise WorkloadError(f"total must be > 0, got {total}")
    rng = random.Random(seed)
    duration_ms = REPLAY_DURATION_MS
    burst_count = 5
    burst_volume = int(total * 0.85)
    base, remainder = divmod(burst_volume, burst_count)
    starts = sorted(rng.uniform(0.02, 0.85) * duration_ms
                    for _ in range(burst_count))
    bursts = []
    for index, start in enumerate(starts):
        count = base + (1 if index < remainder else 0)
        width = rng.uniform(0.2, 1.2) * SECOND
        bursts.append(Burst(start_ms=start, width_ms=width, count=count))
    return bursty_arrivals(duration_ms=duration_ms, total=total,
                           bursts=bursts, rng=rng)


def iter_tiled_replay_arrivals(total: int,
                               tile_invocations: int,
                               seed: int = 13,
                               ) -> Iterator[Tuple[int, float]]:
    """Tile bursty replay minutes end to end, streaming ``(index, arrival)``.

    Tile *t* draws a fresh bursty minute of up to ``tile_invocations``
    arrivals (seed ``seed + t``) offset by its minute boundary — exactly
    the scenario construction the perf bench materialized before the
    streaming refactor, now O(one tile) in memory.  ``index`` is the
    global 0-based arrival rank, which synthesis layers use to assign
    function ids without any look-back.  Tiles never overlap, so the
    concatenation is globally time-ordered.
    """
    if total < 1:
        raise WorkloadError(f"total must be >= 1, got {total}")
    if tile_invocations < 1:
        raise WorkloadError(
            f"tile_invocations must be >= 1, got {tile_invocations}")
    index = 0
    tile = 0
    remaining = total
    while remaining > 0:
        count = min(tile_invocations, remaining)
        offset = tile * REPLAY_DURATION_MS
        for arrival in replay_minute_arrivals(seed=seed + tile, total=count):
            yield index, offset + arrival
            index += 1
        remaining -= count
        tile += 1


def tiled_replay_tile_count(total: int, tile_invocations: int) -> int:
    """Number of minute tiles :func:`iter_tiled_replay_arrivals` spans."""
    if total < 1 or tile_invocations < 1:
        raise WorkloadError(
            f"need positive totals, got total={total} "
            f"tile_invocations={tile_invocations}")
    return -(-total // tile_invocations)


class DailyPatternGenerator:
    """Per-minute daily invocation counts for hot functions (Fig. 2).

    Each generated function has several *active episodes* during the day;
    inside an episode, minutes carry geometric bursts; outside, the function
    is almost silent.  Every function exceeds 1000 invocations/day, matching
    the paper's selection criterion.
    """

    MINUTES_PER_DAY = 24 * 60

    def __init__(self, seed: int = 2) -> None:
        self._seed = seed

    def minute_counts(self, function_rank: int) -> List[int]:
        """Return 1440 per-minute counts for the function at *function_rank*."""
        if function_rank < 0:
            raise WorkloadError(f"negative rank: {function_rank}")
        rng = random.Random(f"{self._seed}:{function_rank}")
        counts = [0] * self.MINUTES_PER_DAY
        episodes = rng.randint(3, 6)
        for _ in range(episodes):
            start = rng.randrange(0, self.MINUTES_PER_DAY - 60)
            length = rng.randint(20, 120)
            intensity = rng.uniform(3.0, 15.0)
            for minute in range(start, min(start + length,
                                           self.MINUTES_PER_DAY)):
                if rng.random() < 0.75:  # bursty: not every minute fires
                    counts[minute] += max(1, int(rng.expovariate(
                        1.0 / intensity)))
        # Light background so the daily total clears 1000 like the paper's
        # representative functions.
        while sum(counts) < 1100:
            counts[rng.randrange(self.MINUTES_PER_DAY)] += max(
                1, int(rng.expovariate(0.5)))
        return counts

    def burstiness_index(self, counts: List[int]) -> float:
        """Fraction of the day's volume carried by the top 10 % of minutes.

        A uniform pattern scores ~0.1; the paper's hot functions are far
        burstier (most volume inside episodes).
        """
        if len(counts) != self.MINUTES_PER_DAY:
            raise WorkloadError("expected 1440 per-minute counts")
        total = sum(counts)
        if total == 0:
            raise WorkloadError("empty day")
        top = sorted(counts, reverse=True)[: self.MINUTES_PER_DAY // 10]
        return sum(top) / total
