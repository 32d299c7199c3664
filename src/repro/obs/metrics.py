"""Metrics registry: counters, gauges and deterministically-bucketed histograms.

Every layer of the platform publishes into one :class:`MetricsRegistry` —
the pool its hit/miss/expiry accounting, the docker facade its container
churn, the schedulers their window and batch shapes, the platform its
decision counts and latency distributions.  The registry is *observational*:
recording a sample never creates simulation events, so enabling metrics can
never change a simulated result.

Determinism
-----------
Histogram buckets are fixed at construction (default: a 1-2-5 decade series
in milliseconds), so two identical runs produce byte-identical snapshots and
snapshots are safe to diff in tests and pinned artefacts.  ``snapshot()``
orders everything by metric name.
"""

from __future__ import annotations

import bisect
from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union,
)

if TYPE_CHECKING:
    from repro.common.streaming import TelemetrySnapshot

#: Default histogram edges: a 1-2-5 decade ladder from 1 ms to 5 minutes.
#: Chosen once and fixed so breakdown histograms are comparable across runs.
DEFAULT_LATENCY_EDGES_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
    100_000.0, 200_000.0, 300_000.0,
)

#: Small-integer edges for size-shaped metrics (batch sizes, group counts).
DEFAULT_SIZE_EDGES: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0, 144.0,
)


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc({amount}))")
        self.value += amount


class Gauge:
    """A value that can move in both directions (e.g. idle containers)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class ClockGauge(Gauge):
    """A gauge whose value reads a live clock instead of a stored float.

    Used for ``sim.time_ms``: ``value`` reads ``clock.now`` at snapshot
    time, which replaces the per-advance kernel time hook the registry
    used to install (a callback on every clock advance of every run).
    Writes via ``set``/``inc``/``dec`` are ignored — the clock is the
    single source of truth.
    """

    def __init__(self, name: str, clock) -> None:
        self.name = name
        #: Any object with a ``now`` attribute (duck-typed so this module
        #: needs no kernel import); rebindable when a bundle is reused.
        self.clock = clock

    @property
    def value(self) -> float:
        return self.clock.now

    @value.setter
    def value(self, _value: float) -> None:
        pass


class Histogram:
    """Fixed-bucket histogram with half-open buckets ``[edge_i, edge_i+1)``.

    Samples below the first edge land in an underflow bucket; samples at or
    above the last edge land in the unbounded tail.  Tracks count/sum/min/max
    exactly, so means are not subject to bucketing error.
    """

    def __init__(self, name: str,
                 edges: Sequence[float] = DEFAULT_LATENCY_EDGES_MS) -> None:
        if len(edges) < 2:
            raise ValueError(f"histogram {name} needs at least two edges")
        if list(edges) != sorted(set(edges)):
            raise ValueError(f"histogram {name} edges must be "
                             "strictly increasing")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        #: counts[0] is the underflow bucket; counts[-1] the unbounded tail.
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_right(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        low = self.min
        if low is None or value < low:
            self.min = value
        high = self.max
        if high is None or value > high:
            self.max = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        return self.sum / self.count

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile with exact and interpolated edges.

        Behaviour, in order:

        * ``q`` outside [0, 1] raises ``ValueError`` (never clamped); an
          empty histogram raises too;
        * ``q == 0.0`` returns the exact observed minimum and ``q == 1.0``
          the exact observed maximum (tracked per sample, so the extremes
          are not subject to bucketing error);
        * a quantile landing in an *interior* bucket returns that bucket's
          upper edge — deterministic and conservative (rounds up to a
          boundary);
        * a quantile landing in the **underflow** bucket (below the first
          edge) or the **unbounded tail** (at/above the last edge)
          interpolates linearly between the observed extreme and the
          adjacent finite edge, since those buckets have no finite far
          boundary to round to.

        Exact per-sample quantiles belong to :class:`~repro.common.stats`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        assert self.min is not None and self.max is not None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        running = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if running + bucket_count >= target:
                fraction = (target - running) / bucket_count
                if index == 0:
                    lo = self.min
                    hi = min(self.edges[0], self.max)
                    return lo + fraction * (hi - lo)
                if index <= len(self.edges) - 1:
                    return self.edges[index]
                lo = max(self.edges[-1], self.min)
                return lo + fraction * (self.max - lo)
            running += bucket_count
        return self.max

    def bucket_rows(self) -> List[Tuple[str, int]]:
        """``(label, count)`` per non-empty bucket, for reports."""
        rows: List[Tuple[str, int]] = []
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if index == 0:
                label = f"(-inf, {self.edges[0]:g})"
            elif index <= len(self.edges) - 1:
                label = f"[{self.edges[index - 1]:g}, {self.edges[index]:g})"
            else:
                label = f"[{self.edges[-1]:g}, inf)"
            rows.append((label, bucket_count))
        return rows


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Create-or-get registry of named metrics.

    Names are dot-namespaced by the publishing layer (``pool.warm_hits``,
    ``docker.containers_created``, ``faasbatch.group_size``).  Re-requesting
    a name returns the existing metric; re-requesting it as a different
    *type* is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _check(self, existing: Metric, name: str, kind: type) -> None:
        if not isinstance(existing, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, requested {kind.__name__}")

    # The create-or-get accessors inline their fast path (no factory
    # closure allocated per call — these run inside the simulation loop).

    def counter(self, name: str) -> Counter:
        existing = self._metrics.get(name)
        if existing is not None:
            self._check(existing, name, Counter)
            return existing
        metric = Counter(name)
        self._metrics[name] = metric
        return metric

    def gauge(self, name: str) -> Gauge:
        existing = self._metrics.get(name)
        if existing is not None:
            self._check(existing, name, Gauge)
            return existing
        metric = Gauge(name)
        self._metrics[name] = metric
        return metric

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_LATENCY_EDGES_MS
                  ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            self._check(existing, name, Histogram)
            return existing
        metric = Histogram(name, edges)
        self._metrics[name] = metric
        return metric

    def install(self, metric: Metric) -> Metric:
        """Register (or replace) a pre-built metric under its own name.

        The escape hatch for specialised subclasses such as
        :class:`ClockGauge`, which the create-or-get factories cannot
        build.
        """
        self._metrics[metric.name] = metric
        return metric

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-serialisable dump of every metric."""
        out: Dict[str, object] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "type": "histogram",
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min,
                    "max": metric.max,
                    "buckets": metric.bucket_rows(),
                }
            else:
                kind = "counter" if isinstance(metric, Counter) else "gauge"
                out[name] = {"type": kind, "value": metric.value}
        return out


class LazyMetrics:
    """Named metric handles, each created in its registry on first use.

    ``LazyMetrics(registry, hits=("counter", "pool.warm_hits"))`` creates
    the counter the first time ``handles.hits`` is read and caches it as a
    plain attribute, so a hot path pays one attribute lookup per publish
    and no registry call.  Creating on first use keeps a metric that never
    fires out of snapshots (and so out of pinned digests).
    """

    def __init__(self, registry: MetricsRegistry, **specs: Tuple) -> None:
        self._registry = registry
        self._specs = specs

    def __getattr__(self, attr: str) -> Metric:
        spec = self.__dict__.get("_specs", {}).get(attr)
        if spec is None:
            raise AttributeError(attr)
        kind, *args = spec
        metric = getattr(self._registry, kind)(*args)
        setattr(self, attr, metric)
        return metric


def telemetry_snapshot(registry: MetricsRegistry) -> TelemetrySnapshot:
    """Reduce a live registry to a mergeable :class:`TelemetrySnapshot`.

    The three scalar kinds land in separate maps because they merge
    differently across shards: counters and plain gauges sum, while
    :class:`ClockGauge` readings take the max (each shard's clock stops
    at its own completion time).  Histogram state is copied
    bucket-for-bucket — full fidelity, not the labelled ``bucket_rows()``
    digest — so merged buckets stay integer-exact.
    """
    # Only a shard ships a snapshot: the live tier never loads the sinks.
    from repro.common.streaming import TelemetrySnapshot

    snap = TelemetrySnapshot()
    for name in registry.names():
        metric = registry._metrics[name]
        if isinstance(metric, Histogram):
            snap.histograms[name] = {
                "edges": list(metric.edges),
                "counts": list(metric.counts),
                "count": metric.count,
                "sum": metric.sum,
                "min": metric.min,
                "max": metric.max,
            }
        elif isinstance(metric, Counter):
            snap.counters[name] = metric.value
        elif isinstance(metric, ClockGauge):
            snap.clocks[name] = metric.value
        else:
            snap.gauges[name] = metric.value
    return snap
