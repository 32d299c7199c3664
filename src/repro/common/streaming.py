"""Bounded-memory result accounting for million-invocation runs.

The paper's full Azure trace carries ~1.98 M invocations; holding even a
few columns per arrival (as :class:`ExperimentResult` does) grows with the
replay.  This module provides the *online* alternative: a shard's
completion listener publishes each completion into a
:class:`StreamingResultSink` and drops the record, so memory stays flat no
matter how long the replay runs.

Three mergeable primitives back the sink, each folding a float column
in order (``observe(v)`` is a one-element fold):

* :class:`OnlineStats` — count / total / min / max / sum-of-squares.
* :class:`LogBucketHistogram` — geometric buckets found by bisecting
  precomputed edges; merging sums integer counts, so merged percentiles
  are *exactly* order-independent.
* :class:`BoundedReservoir` — a bottom-k sketch: every sample draws a
  deterministic pseudo-random priority and the reservoir keeps the k
  smallest.  "k smallest of a union" is associative and commutative, so
  shard reservoirs merge in any order to the identical sample set.  While
  fewer than ``capacity`` samples have been seen the reservoir holds the
  *entire* population, as two ``array('d')`` columns (16 bytes a sample),
  and percentile queries are exact — the property the figures pipeline
  and the CI shard-equivalence check rely on.

The sink buffers each completion's six latencies and folds them per
chunk and before any read, in observation order: every field is
bit-identical to observing one sample at a time (sums and squares
accumulate left to right; each channel's RNG draws in the same order).

Merge semantics (the sharded cluster contract): for any sinks a, b, c
``merge`` is associative and commutative in every field the percentile and
count queries read.  Floating-point *totals* (means) are summed pairwise
and may differ in the last ulp across merge orders; counts, minima,
maxima, histogram counts and reservoir contents never do.
"""

from __future__ import annotations

import base64
import heapq
import math
import random
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache, reduce
from itertools import chain, repeat, starmap
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.stats import SampleStats

#: Default cap on exact samples retained per channel.  50 k floats is
#: ~400 kB — far below one shard's working set — while keeping the exact
#: percentile path for every scenario the repo benchmarked before this
#: module existed.
DEFAULT_RESERVOIR_CAPACITY = 50_000

#: Geometric histogram defaults: first finite bucket at 0.01 ms, 5 %
#: growth, enough buckets to pass 10^7 ms (~2.8 simulated hours).
HISTOGRAM_MIN = 0.01
HISTOGRAM_GROWTH = 1.05
HISTOGRAM_BUCKETS = 426


class OnlineStats:
    """Constant-memory scalar moments; mergeable."""

    __slots__ = ("count", "total", "sum_squares", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sum_squares = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.fold(array("d", (value,)))

    def fold(self, values: Sequence[float]) -> None:
        """One :meth:`observe` per value, in order (one float chain)."""
        if any(map(math.isnan, values)):
            raise ValueError("NaN samples are not allowed")
        self.count += len(values)
        self.total = reduce(add, values, self.total)
        self.sum_squares = reduce(add, map(mul, values, values),
                                  self.sum_squares)
        self.minimum = min(self.minimum, min(values, default=math.inf))
        self.maximum = max(self.maximum, max(values, default=-math.inf))

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no samples recorded")
        return self.total / self.count

    def merge(self, other: "OnlineStats") -> None:
        self.count += other.count
        self.total += other.total
        self.sum_squares += other.sum_squares
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    def to_dict(self) -> Dict[str, object]:
        return {"count": self.count, "total": self.total,
                "sum_squares": self.sum_squares,
                "min": None if self.count == 0 else self.minimum,
                "max": None if self.count == 0 else self.maximum}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "OnlineStats":
        stats = cls()
        stats.count = int(payload["count"])  # type: ignore[arg-type]
        stats.total = float(payload["total"])  # type: ignore[arg-type]
        stats.sum_squares = float(payload["sum_squares"])  # type: ignore[arg-type]
        if stats.count:
            stats.minimum = float(payload["min"])  # type: ignore[arg-type]
            stats.maximum = float(payload["max"])  # type: ignore[arg-type]
        return stats


@lru_cache(maxsize=8)
def _bucket_edges(minimum: float, growth: float, buckets: int) -> tuple:
    return tuple(minimum * growth ** index for index in range(buckets))


class LogBucketHistogram:
    """Sparse geometric-bucket histogram with order-independent merge.

    Bucket ``i`` covers ``[min * growth**i, min * growth**(i+1))``; values
    below ``min`` (including 0) land in the dedicated underflow bucket and
    values beyond the last edge in the overflow bucket.  Counts are
    integers, so merged quantiles are bit-identical under any merge order.
    """

    __slots__ = ("minimum", "growth", "buckets", "_edges", "counts",
                 "underflow", "total")

    def __init__(self, minimum: float = HISTOGRAM_MIN,
                 growth: float = HISTOGRAM_GROWTH,
                 buckets: int = HISTOGRAM_BUCKETS) -> None:
        if minimum <= 0 or growth <= 1.0 or buckets < 1:
            raise ValueError(
                f"bad histogram shape: min={minimum} growth={growth} "
                f"buckets={buckets}")
        self.minimum = minimum
        self.growth = growth
        self.buckets = buckets
        self._edges = _bucket_edges(minimum, growth, buckets)
        self.counts: Dict[int, int] = {}
        self.underflow = 0
        self.total = 0

    def observe(self, value: float) -> None:
        self.fold(array("d", (value,)))

    def fold(self, values: Sequence[float]) -> None:
        """Count each value in the last bucket with ``lower_edge <= v``:
        sorted, one ``bisect_right`` per occupied bucket."""
        ordered = sorted(values)
        if any(map(math.isnan, ordered)) or ordered and ordered[0] < 0:
            bad = next(v for v in ordered if not v >= 0)
            raise ValueError(f"histogram samples must be >= 0, got {bad}")
        self.total += len(ordered)
        edges, counts = self._edges, self.counts
        start = 0
        while start < len(ordered):
            slot = bisect_right(edges, ordered[start])
            stop = (bisect_left(ordered, edges[slot], start)
                    if slot < len(edges) else len(ordered))
            if slot:
                counts[slot - 1] = counts.get(slot - 1, 0) + stop - start
            else:
                self.underflow += stop - start
            start = stop

    def lower_edge(self, index: int) -> float:
        return self.minimum * self.growth ** index

    def quantile(self, q: float) -> float:
        """Approximate quantile: geometric midpoint of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            raise ValueError("empty histogram")
        rank = q * (self.total - 1)
        seen = self.underflow
        if rank < seen:
            return 0.0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if rank < seen:
                return self.lower_edge(index) * math.sqrt(self.growth)
        return self.lower_edge(max(self.counts))  # pragma: no cover - guard

    def compatible(self, other: "LogBucketHistogram") -> bool:
        return (self.minimum == other.minimum and self.growth == other.growth
                and self.buckets == other.buckets)

    def merge(self, other: "LogBucketHistogram") -> None:
        if not self.compatible(other):
            raise ValueError("cannot merge histograms with different shapes")
        self.underflow += other.underflow
        self.total += other.total
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count

    def to_dict(self) -> Dict[str, object]:
        return {"min": self.minimum, "growth": self.growth,
                "buckets": self.buckets, "underflow": self.underflow,
                "counts": {str(k): v for k, v in sorted(self.counts.items())}}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LogBucketHistogram":
        histogram = cls(minimum=float(payload["min"]),  # type: ignore[arg-type]
                        growth=float(payload["growth"]),  # type: ignore[arg-type]
                        buckets=int(payload["buckets"]))  # type: ignore[arg-type]
        histogram.underflow = int(payload["underflow"])  # type: ignore[arg-type]
        counts = payload["counts"]
        histogram.counts = {int(k): int(v)
                            for k, v in counts.items()}  # type: ignore[union-attr]
        histogram.total = (histogram.underflow
                           + sum(histogram.counts.values()))
        return histogram


class BoundedReservoir:
    """Bottom-k sample sketch with an associative, commutative merge.

    Every sample draws a priority from a seeded RNG; the reservoir keeps
    the ``capacity`` samples with the *smallest* priorities.  The kept set
    of a union is independent of insertion or merge order, so shard
    reservoirs always merge to the identical sample multiset.  Until
    ``seen`` exceeds ``capacity`` nothing has been evicted and
    :meth:`values` is the exact population, kept as two ``array('d')``
    columns; the first eviction moves it onto a ``(-priority, value)``
    max-heap.
    """

    __slots__ = ("capacity", "seen", "_priorities", "_values", "_heap", "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY,
                 seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        self._priorities = array("d")
        self._values = array("d")
        # ``None`` while columnar.  Once set, the root is the eviction
        # candidate (largest priority kept) and the columns stay empty.
        self._heap: Optional[List[Tuple[float, float]]] = None
        self._rng = random.Random(seed)

    @property
    def exact(self) -> bool:
        """True while the reservoir still holds every observed sample."""
        return self.seen <= self.capacity

    def observe(self, value: float) -> None:
        self.fold(array("d", (value,)))

    def fold(self, values: Sequence[float]) -> None:
        """Offer *values* in order, one priority draw each."""
        draw = self._rng.random
        self.seen += len(values)
        if self._heap is None:
            room = self.capacity - len(self._values)
            self._priorities.extend(
                starmap(draw, repeat((), min(room, len(values)))))
            self._values.extend(values[:room])
            if len(values) <= room:
                return
            values = values[room:]
            self._keep(zip(self._priorities, self._values))
        heap = self._heap
        for value in values:  # the heap is full: each kept item evicts one
            item = (-draw(), value)
            if item > heap[0]:
                heapq.heapreplace(heap, item)

    def _keep(self, pairs: Iterable[Tuple[float, float]]) -> None:
        """Move onto the heap, keeping the ``capacity`` largest
        ``(-priority, value)`` of *pairs* — what eviction keeps."""
        self._heap = heapq.nlargest(self.capacity,
                                    ((-p, value) for p, value in pairs))
        heapq.heapify(self._heap)
        self._priorities, self._values = array("d"), array("d")

    def _columns(self) -> Tuple[Sequence[float], Sequence[float]]:
        """Kept ``(priorities, values)``, in storage order."""
        if self._heap is None:
            return self._priorities, self._values
        return ([-neg for neg, _value in self._heap],
                [value for _neg, value in self._heap])

    def values(self) -> List[float]:
        """Kept samples, sorted by value (deterministic)."""
        return sorted(self._columns()[1])

    def merge(self, other: "BoundedReservoir") -> None:
        if other.capacity != self.capacity:
            raise ValueError("cannot merge reservoirs of different capacity")
        self.seen += other.seen
        priorities, values = other._columns()
        if self._heap is None \
                and len(self._values) + len(values) <= self.capacity:
            # Nothing is evicted: the union is the result.
            self._priorities.extend(priorities)
            self._values.extend(values)
            return
        self._keep(chain(zip(*self._columns()), zip(priorities, values)))

    def to_dict(self) -> Dict[str, object]:
        """``priorities`` / ``values``: base64 of little-endian float64
        arrays, sorted by (priority, value) — bit-exact and compact."""
        items = sorted(zip(*self._columns()))
        return {"capacity": self.capacity, "seen": self.seen,
                "priorities": _pack_floats(p for p, _value in items),
                "values": _pack_floats(value for _p, value in items)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  seed: int = 0) -> "BoundedReservoir":
        reservoir = cls(capacity=int(payload["capacity"]),  # type: ignore[arg-type]
                        seed=seed)
        reservoir.seen = int(payload["seen"])  # type: ignore[arg-type]
        priorities = _unpack_floats(payload["priorities"])  # type: ignore[arg-type]
        values = _unpack_floats(payload["values"])  # type: ignore[arg-type]
        if len(priorities) != len(values):
            raise ValueError(
                f"reservoir payload has {len(priorities)} priorities but "
                f"{len(values)} values")
        if len(values) > reservoir.capacity:
            raise ValueError(
                f"reservoir payload holds {len(values)} samples, over its "
                f"capacity of {reservoir.capacity}")
        reservoir._priorities, reservoir._values = priorities, values
        return reservoir


def _pack_floats(values: Iterable[float]) -> str:
    """Base64 of a little-endian float64 array."""
    packed = array("d", values)
    if sys.byteorder == "big":
        packed.byteswap()
    return base64.b64encode(packed.tobytes()).decode("ascii")


def _unpack_floats(encoded: str) -> "array[float]":
    """Inverse of :func:`_pack_floats`; ``ValueError`` on bad base64 or a
    byte count that is not a whole number of float64s."""
    unpacked = array("d")
    unpacked.frombytes(base64.b64decode(encoded, validate=True))
    if sys.byteorder == "big":
        unpacked.byteswap()
    return unpacked


class ChannelStats:
    """One named metric channel: moments + histogram + exact-sample sketch."""

    __slots__ = ("stats", "histogram", "reservoir")

    def __init__(self, reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
                 seed: int = 0) -> None:
        self.stats = OnlineStats()
        self.histogram = LogBucketHistogram()
        self.reservoir = BoundedReservoir(capacity=reservoir_capacity,
                                          seed=seed)

    def observe(self, value: float) -> None:
        self.fold(array("d", (value,)))

    def fold(self, values: Sequence[float]) -> None:
        """Observe *values* in order, bit-identically to one at a time."""
        # First: the histogram rejects NaN and negatives before any count.
        self.histogram.fold(values)
        self.stats.fold(values)
        self.reservoir.fold(values)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def exact(self) -> bool:
        return self.reservoir.exact

    def percentile(self, q: float) -> float:
        """Percentile in [0, 100]: exact below the reservoir cap, else the
        histogram's order-independent approximation."""
        if self.count == 0:
            raise ValueError("no samples recorded")
        if self.exact:
            return SampleStats(self.reservoir.values()).percentile(q)
        return self.histogram.quantile(q / 100.0)

    def sample_stats(self) -> SampleStats:
        """Exact samples (the whole population while :attr:`exact` holds)."""
        return SampleStats(self.reservoir.values())

    def merge(self, other: "ChannelStats") -> None:
        self.stats.merge(other.stats)
        self.histogram.merge(other.histogram)
        self.reservoir.merge(other.reservoir)

    def to_dict(self) -> Dict[str, object]:
        return {"stats": self.stats.to_dict(),
                "histogram": self.histogram.to_dict(),
                "reservoir": self.reservoir.to_dict()}

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  seed: int = 0) -> "ChannelStats":
        channel = cls(seed=seed)
        channel.stats = OnlineStats.from_dict(
            payload["stats"])  # type: ignore[arg-type]
        channel.histogram = LogBucketHistogram.from_dict(
            payload["histogram"])  # type: ignore[arg-type]
        channel.reservoir = BoundedReservoir.from_dict(
            payload["reservoir"], seed=seed)  # type: ignore[arg-type]
        return channel


def _channel_seed(base_seed: int, name: str) -> int:
    """Deterministic per-channel reservoir seed (stable across processes)."""
    return base_seed ^ zlib.crc32(name.encode())


class StreamingResultSink:
    """Online result accounting a platform or cluster run publishes into.

    Experiments call :meth:`observe_invocation` on every completion and
    drop the record; shards serialise with :meth:`to_dict`, ship the JSON
    over a pipe, and the coordinator folds them with :meth:`merge` (any
    order — see the module docstring for the exact-identity guarantees).
    """

    #: Channel names published by :meth:`observe_invocation`.
    E2E = "e2e_ms"
    RESPONSE = "response_ms"
    SCHEDULING = "scheduling_ms"
    COLD_START = "cold_start_ms"
    QUEUING = "queuing_ms"
    EXECUTION = "execution_ms"
    _BUFFERED = (E2E, RESPONSE, SCHEDULING, COLD_START, QUEUING, EXECUTION)
    _CHUNK = 1024  # completions buffered between folds

    def __init__(self, reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
                 seed: int = 0) -> None:
        if reservoir_capacity < 1:
            raise ValueError(
                f"reservoir_capacity must be >= 1, got {reservoir_capacity}")
        self.reservoir_capacity = reservoir_capacity
        self.seed = seed
        self.channels: Dict[str, ChannelStats] = {}
        self.counters: Dict[str, int] = {}
        # Unfolded completions' :data:`_BUFFERED` latencies, interleaved;
        # ``channels`` is current only after a fold (:meth:`channel`).
        self._pending = array("d")

    # -- accumulation -----------------------------------------------------

    def _fold_pending(self) -> None:
        pending, self._pending = self._pending, array("d")
        if pending:
            stride = len(self._BUFFERED)
            for offset, name in enumerate(self._BUFFERED):
                self.channel(name).fold(pending[offset::stride])

    def channel(self, name: str) -> ChannelStats:
        self._fold_pending()
        channel = self.channels.get(name)
        if channel is None:
            channel = self.channels[name] = ChannelStats(
                reservoir_capacity=self.reservoir_capacity,
                seed=_channel_seed(self.seed, name))
        return channel

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def observe_invocation(self, invocation) -> None:
        """Publish one completed invocation's latency breakdown and drop it."""
        counters = self.counters
        if getattr(invocation, "error", None) is not None:
            counters["failed"] = counters.get("failed", 0) + 1
            return
        counters["completed"] = counters.get("completed", 0) + 1
        latency = invocation.latency
        pending = self._pending
        pending.extend((
            invocation.end_to_end_ms, invocation.response_latency_ms,
            latency.scheduling_ms, latency.cold_start_ms,
            latency.queuing_ms, latency.execution_ms))
        if len(pending) >= self._CHUNK * len(self._BUFFERED):
            self._fold_pending()

    # -- merge / serialisation -------------------------------------------

    def merge(self, other: "StreamingResultSink") -> None:
        if other.reservoir_capacity != self.reservoir_capacity:
            raise ValueError("cannot merge sinks with different reservoir "
                             "capacities")
        self._fold_pending()
        other._fold_pending()
        for name, channel in other.channels.items():
            mine = self.channels.get(name)
            if mine is None:
                # Fresh channel adopting the other's state keeps merge
                # commutative: seed only matters for future observations.
                mine = self.channels[name] = ChannelStats(
                    reservoir_capacity=self.reservoir_capacity,
                    seed=_channel_seed(self.seed, name))
            mine.merge(channel)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    @classmethod
    def merged(cls, sinks: Iterable["StreamingResultSink"]
               ) -> "StreamingResultSink":
        result: Optional[StreamingResultSink] = None
        for sink in sinks:
            if result is None:
                result = StreamingResultSink(
                    reservoir_capacity=sink.reservoir_capacity,
                    seed=sink.seed)
            result.merge(sink)
        if result is None:
            raise ValueError("merged() needs at least one sink")
        return result

    def to_dict(self) -> Dict[str, object]:
        self._fold_pending()
        return {
            "reservoir_capacity": self.reservoir_capacity,
            "seed": self.seed,
            "counters": dict(sorted(self.counters.items())),
            "channels": {name: channel.to_dict()
                         for name, channel in sorted(self.channels.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StreamingResultSink":
        sink = cls(reservoir_capacity=int(
            payload["reservoir_capacity"]),  # type: ignore[arg-type]
            seed=int(payload.get("seed", 0)))  # type: ignore[arg-type]
        sink.counters = {str(k): int(v) for k, v
                         in payload["counters"].items()}  # type: ignore[union-attr]
        for name, channel in payload["channels"].items():  # type: ignore[union-attr]
            sink.channels[str(name)] = ChannelStats.from_dict(
                channel, seed=_channel_seed(sink.seed, str(name)))
        return sink

    # -- summary helpers --------------------------------------------------

    @property
    def completed(self) -> int:
        return self.counter("completed")

    @property
    def failed(self) -> int:
        return self.counter("failed")

    def latency_stats(self) -> SampleStats:
        """End-to-end latency samples (the exact population below the cap)."""
        return self.channel(self.E2E).sample_stats()

    def latency_percentile(self, q: float) -> float:
        return self.channel(self.E2E).percentile(q)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest of the end-to-end latency channel."""
        channel = self.channel(self.E2E)
        if channel.count == 0:
            return {"count": 0}
        return {
            "count": channel.count,
            "exact": channel.exact,
            "mean": round(channel.stats.mean, 3),
            "min": round(channel.stats.minimum, 3),
            "max": round(channel.stats.maximum, 3),
            "p50": round(channel.percentile(50.0), 3),
            "p95": round(channel.percentile(95.0), 3),
            "p98": round(channel.percentile(98.0), 3),
            "p99": round(channel.percentile(99.0), 3),
        }


class TelemetrySnapshot:
    """A mergeable, JSON-serialisable digest of one process's telemetry.

    Shards in the sharded cluster ship one of these alongside their
    :class:`StreamingResultSink` so the coordinator can reconstruct the
    exact single-process observability picture.  Six maps, each with its
    own merge rule chosen so that the merged snapshot is **identical for
    any shard-arrival order**:

    * ``counters`` — name → value; merged with :func:`math.fsum`
      (exactly-rounded, hence permutation-invariant even for floats;
      platform counters are integer-valued so they are also exact).
    * ``gauges`` — name → value; merged with :func:`math.fsum`.  The sum
      of per-shard instantaneous values is the natural cluster-wide
      reading, but gauges are point-in-time (some, like ``pool.idle``,
      are last-writer-wins even within one process), so *only this map*
      carries no merged-equals-single-process guarantee.  The exactness
      contract covers counters, clocks, histogram buckets and
      log-histogram counts.
    * ``clocks`` — name → value; merged with :func:`max`.  Clock gauges
      (``sim.time_ms``) read a shard-local clock; the cluster-wide value
      is the furthest-ahead shard, matching
      ``ShardedClusterResult.completion_ms``.
    * ``histograms`` — name → fixed-edge histogram dict (``edges``,
      ``counts``, ``count``, ``sum``, ``min``, ``max``).  Counts are
      integers summed elementwise; sums use :func:`math.fsum`; min/max
      fold.  Edges must match exactly or the merge raises.
    * ``log_histograms`` — name → :class:`LogBucketHistogram` dict; same
      integer-count exactness as the sink's latency channels.
    * ``series`` — name → coalesced time-series dict
      (:meth:`repro.obs.timeseries.Series.to_dict`).  Series are
      shard-local signals with no cross-shard identity, so merging
      requires *disjoint* names and raises on collision (shards suffix
      their names when sampling is on).
    """

    _FIELDS = ("counters", "gauges", "clocks", "histograms",
               "log_histograms", "series")

    def __init__(self,
                 counters: Optional[Dict[str, float]] = None,
                 gauges: Optional[Dict[str, float]] = None,
                 clocks: Optional[Dict[str, float]] = None,
                 histograms: Optional[Dict[str, dict]] = None,
                 log_histograms: Optional[Dict[str, dict]] = None,
                 series: Optional[Dict[str, dict]] = None) -> None:
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.clocks = dict(clocks or {})
        self.histograms = dict(histograms or {})
        self.log_histograms = dict(log_histograms or {})
        self.series = dict(series or {})

    def to_dict(self) -> dict:
        """JSON payload with deterministic key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "clocks": {k: self.clocks[k] for k in sorted(self.clocks)},
            "histograms": {k: self.histograms[k]
                           for k in sorted(self.histograms)},
            "log_histograms": {k: self.log_histograms[k]
                               for k in sorted(self.log_histograms)},
            "series": {k: self.series[k] for k in sorted(self.series)},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TelemetrySnapshot":
        return cls(**{field: payload.get(field) for field in cls._FIELDS})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TelemetrySnapshot):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        sizes = ", ".join(f"{field}={len(getattr(self, field))}"
                          for field in self._FIELDS)
        return f"TelemetrySnapshot({sizes})"

    @staticmethod
    def _merge_histograms(dicts: List[dict]) -> dict:
        edges = dicts[0]["edges"]
        for d in dicts[1:]:
            if d["edges"] != edges:
                raise ValueError(
                    f"histogram edge mismatch: {d['edges']} != {edges}")
        counts = [sum(d["counts"][i] for d in dicts)
                  for i in range(len(dicts[0]["counts"]))]
        minima = [d["min"] for d in dicts if d["min"] is not None]
        maxima = [d["max"] for d in dicts if d["max"] is not None]
        return {
            "edges": list(edges),
            "counts": counts,
            "count": sum(d["count"] for d in dicts),
            "sum": math.fsum(d["sum"] for d in dicts),
            "min": min(minima) if minima else None,
            "max": max(maxima) if maxima else None,
        }

    @staticmethod
    def _merge_log_histograms(dicts: List[dict]) -> dict:
        first = dicts[0]
        for d in dicts[1:]:
            for key in ("min", "growth", "buckets"):
                if d[key] != first[key]:
                    raise ValueError(
                        f"log-histogram shape mismatch on {key!r}")
        counts: Dict[str, int] = {}
        for d in dicts:
            for bucket, count in d["counts"].items():
                counts[bucket] = counts.get(bucket, 0) + count
        return {
            "min": first["min"],
            "growth": first["growth"],
            "buckets": first["buckets"],
            "underflow": sum(d["underflow"] for d in dicts),
            "counts": {k: counts[k] for k in sorted(counts, key=int)},
        }

    @classmethod
    def merged(cls, snapshots: Iterable["TelemetrySnapshot"]
               ) -> "TelemetrySnapshot":
        """Order-independent merge of any number of snapshots.

        Implemented as one n-way fold (``fsum`` over all shards at once)
        rather than pairwise merges, which is what makes float sums
        exactly permutation-invariant.
        """
        snaps = list(snapshots)
        result = cls()
        for field, rule in (("counters", math.fsum),
                            ("gauges", math.fsum),
                            ("clocks", max)):
            names = sorted({name for s in snaps
                            for name in getattr(s, field)})
            getattr(result, field).update(
                (name, rule(getattr(s, field)[name] for s in snaps
                            if name in getattr(s, field)))
                for name in names)
        for name in sorted({n for s in snaps for n in s.histograms}):
            result.histograms[name] = cls._merge_histograms(
                [s.histograms[name] for s in snaps if name in s.histograms])
        for name in sorted({n for s in snaps for n in s.log_histograms}):
            result.log_histograms[name] = cls._merge_log_histograms(
                [s.log_histograms[name] for s in snaps
                 if name in s.log_histograms])
        for snap in snaps:
            for name, series in snap.series.items():
                if name in result.series:
                    raise ValueError(
                        f"series name collision on merge: {name!r}")
                result.series[name] = series
        return result


__all__ = [
    "DEFAULT_RESERVOIR_CAPACITY",
    "BoundedReservoir",
    "ChannelStats",
    "LogBucketHistogram",
    "OnlineStats",
    "StreamingResultSink",
    "TelemetrySnapshot",
]
