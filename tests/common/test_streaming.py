"""Bounded accounting: online stats, mergeable sketches, the result sink."""

from __future__ import annotations

import base64
import heapq
import itertools
import json
import math
import random
import struct
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import SampleStats
from repro.common.streaming import (
    BoundedReservoir,
    ChannelStats,
    LogBucketHistogram,
    OnlineStats,
    StreamingResultSink,
)


def _values(seed: int, count: int, scale: float = 1000.0):
    rng = random.Random(seed)
    return [rng.random() * scale for _ in range(count)]


class TestOnlineStats:
    def test_matches_direct_computation(self):
        values = _values(1, 500)
        stats = OnlineStats()
        for value in values:
            stats.observe(value)
        assert stats.count == 500
        assert stats.mean == pytest.approx(sum(values) / 500)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_merge_equals_single_pass(self):
        values = _values(2, 400)
        merged = OnlineStats()
        for value in values:
            merged.observe(value)
        left, right = OnlineStats(), OnlineStats()
        for value in values[:150]:
            left.observe(value)
        for value in values[150:]:
            right.observe(value)
        left.merge(right)
        assert left.count == merged.count
        assert left.minimum == merged.minimum
        assert left.maximum == merged.maximum
        assert left.mean == pytest.approx(merged.mean)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            OnlineStats().observe(float("nan"))

    def test_round_trips_through_json(self):
        stats = OnlineStats()
        for value in _values(3, 50):
            stats.observe(value)
        clone = OnlineStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone.count == stats.count
        assert clone.minimum == stats.minimum
        assert clone.maximum == stats.maximum


class TestLogBucketHistogram:
    def test_quantiles_within_bucket_resolution(self):
        values = _values(4, 2000, scale=5000.0)
        histogram = LogBucketHistogram()
        for value in values:
            histogram.observe(value)
        exact = sorted(values)[int(0.5 * (len(values) - 1))]
        # Geometric buckets grow 5 % per step; the midpoint estimate is
        # within one bucket of the true quantile.
        assert histogram.quantile(0.5) == pytest.approx(exact, rel=0.06)

    def test_merge_is_exactly_order_independent(self):
        chunks = [_values(seed, 300) for seed in (5, 6, 7)]
        quantiles = []
        for order in itertools.permutations(range(3)):
            merged = LogBucketHistogram()
            for index in order:
                part = LogBucketHistogram()
                for value in chunks[index]:
                    part.observe(value)
                merged.merge(part)
            quantiles.append([merged.quantile(q)
                              for q in (0.5, 0.95, 0.99)])
        assert all(q == quantiles[0] for q in quantiles)

    def test_zero_lands_in_underflow(self):
        histogram = LogBucketHistogram()
        histogram.observe(0.0)
        assert histogram.underflow == 1
        assert histogram.quantile(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LogBucketHistogram().observe(-1.0)

    def test_merge_rejects_different_shapes(self):
        with pytest.raises(ValueError):
            LogBucketHistogram().merge(LogBucketHistogram(growth=1.1))

    def test_every_bucket_edge_counts_in_its_own_bucket(self):
        # A value on lower_edge(k) belongs to bucket k, the float just
        # below it to bucket k - 1 (the underflow bucket for k = 0).
        shape = LogBucketHistogram()
        wrong = []
        for k in range(shape.buckets):
            edge = shape.lower_edge(k)
            on, below = LogBucketHistogram(), LogBucketHistogram()
            on.observe(edge)
            below.observe(math.nextafter(edge, 0.0))
            if on.counts != {k: 1}:
                wrong.append(("on", k, on.counts))
            if (below.counts, below.underflow) != (
                    ({k - 1: 1}, 0) if k else ({}, 1)):
                wrong.append(("below", k, below.counts))
        assert wrong == []

    def test_values_past_the_last_edge_overflow_into_the_last_bucket(self):
        histogram = LogBucketHistogram()
        histogram.fold([histogram.lower_edge(histogram.buckets) * 10, 1e300])
        assert histogram.counts == {histogram.buckets - 1: 2}

    def test_round_trips_through_json(self):
        histogram = LogBucketHistogram()
        for value in _values(8, 100):
            histogram.observe(value)
        clone = LogBucketHistogram.from_dict(
            json.loads(json.dumps(histogram.to_dict())))
        assert clone.total == histogram.total
        assert clone.quantile(0.9) == histogram.quantile(0.9)


class TestBoundedReservoir:
    def test_exact_until_capacity(self):
        reservoir = BoundedReservoir(capacity=100, seed=1)
        values = _values(9, 100)
        for value in values:
            reservoir.observe(value)
        assert reservoir.exact
        assert reservoir.values() == sorted(values)
        reservoir.observe(1.0)
        assert not reservoir.exact
        assert len(reservoir.values()) == 100

    def test_merge_is_associative_and_commutative(self):
        parts = []
        for seed in (10, 11, 12, 13):
            reservoir = BoundedReservoir(capacity=50, seed=seed)
            for value in _values(seed, 40):
                reservoir.observe(value)
            parts.append(reservoir)
        outcomes = []
        for order in itertools.permutations(range(4)):
            merged = BoundedReservoir(capacity=50, seed=99)
            for index in order:
                clone = BoundedReservoir.from_dict(parts[index].to_dict(),
                                                   seed=index)
                merged.merge(clone)
            outcomes.append((merged.seen, merged.values()))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_merge_rejects_different_capacities(self):
        with pytest.raises(ValueError):
            BoundedReservoir(capacity=10).merge(BoundedReservoir(capacity=20))

    def test_round_trips_through_json(self):
        reservoir = BoundedReservoir(capacity=10, seed=3)
        for value in _values(14, 25):
            reservoir.observe(value)
        clone = BoundedReservoir.from_dict(
            json.loads(json.dumps(reservoir.to_dict())), seed=3)
        assert clone.seen == reservoir.seen
        assert clone.values() == reservoir.values()


def _packed(*floats):
    """Base64 of little-endian float64s — the wire format, spelled out."""
    return base64.b64encode(
        struct.pack(f"<{len(floats)}d", *floats)).decode("ascii")


def _words(encoded):
    """A packed float64 column as its raw 8-byte words."""
    raw = base64.b64decode(encoded)
    return [raw[i:i + 8] for i in range(0, len(raw), 8)]


def _bits(reservoir):
    """Kept (priority, value) pairs as raw float64 bit patterns."""
    payload = reservoir.to_dict()
    return sorted(zip(_words(payload["priorities"]),
                      _words(payload["values"])))


def _pairs(reservoir):
    """Kept (priority, value) pairs as floats."""
    return sorted(struct.unpack("<dd", p + v) for p, v in _bits(reservoir))


class TestReservoirPayload:
    EDGES = (-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0)

    def test_round_trips_bit_exactly(self):
        payload = {"capacity": 16, "seen": 20,
                   "priorities": _packed(*self.EDGES),
                   "values": _packed(*reversed(self.EDGES))}
        reservoir = BoundedReservoir.from_dict(payload)
        assert _bits(reservoir) == sorted(
            (struct.pack("<d", p), struct.pack("<d", v))
            for p, v in zip(self.EDGES, reversed(self.EDGES)))
        wire = json.loads(json.dumps(reservoir.to_dict()))
        clone = BoundedReservoir.from_dict(wire)
        assert _bits(clone) == _bits(reservoir)
        assert clone.seen == 20 and not clone.exact

    def test_payload_is_packed_and_sorted_by_priority(self):
        reservoir = BoundedReservoir(capacity=50, seed=4)
        for value in _values(40, 30):
            reservoir.observe(value)
        payload = reservoir.to_dict()
        assert set(payload) == {"capacity", "seen", "priorities", "values"}
        raw = base64.b64decode(payload["priorities"])
        priorities = struct.unpack(f"<{len(raw) // 8}d", raw)
        assert list(priorities) == sorted(priorities)
        assert len(priorities) == 30

    @pytest.mark.parametrize("priorities,values,match", [
        (_packed(0.1, 0.2), _packed(1.0), "2 priorities but 1 values"),
        (_packed(0.1), _packed(1.0, 2.0), "1 priorities but 2 values"),
        (_packed(*[0.5] * 5), _packed(*[1.0] * 5), "over its capacity"),
        ("not base64!", _packed(1.0), None),
        (_packed(0.1)[:-4], _packed(1.0), None),
        (base64.b64encode(b"\x00" * 7).decode(), _packed(1.0), None),
    ])
    def test_malformed_payloads_raise(self, priorities, values, match):
        payload = {"capacity": 4, "seen": 9, "priorities": priorities,
                   "values": values}
        with pytest.raises(ValueError, match=match):
            BoundedReservoir.from_dict(payload)

    @pytest.mark.parametrize("union", [-1, 0, 1])
    def test_fast_merge_equals_insert_loop(self, union):
        capacity = 64
        left, right = (BoundedReservoir(capacity=capacity, seed=seed)
                       for seed in (1, 2))
        for value in _values(41, 40):
            left.observe(value)
        for value in _values(42, capacity + union - 40):
            right.observe(value)
        fast = BoundedReservoir.from_dict(left.to_dict())
        fast.merge(right)
        # The insert loop keeps the *capacity* largest (-priority, value)
        # items of the union.
        offered = _pairs(left) + _pairs(right)
        kept = sorted(offered, key=lambda pair: (-pair[0], pair[1]))
        kept = kept[max(0, len(offered) - capacity):]
        assert fast.seen == capacity + union
        assert _pairs(fast) == sorted(kept)
        assert len(fast.values()) == min(capacity, capacity + union)


class TestChannelStats:
    def test_percentile_exact_below_cap(self):
        channel = ChannelStats(reservoir_capacity=1000, seed=0)
        values = _values(15, 500)
        for value in values:
            channel.observe(value)
        ordered = sorted(values)
        assert channel.exact
        assert channel.percentile(0.0) == ordered[0]
        assert channel.percentile(100.0) == ordered[-1]

    def test_percentile_falls_back_to_histogram(self):
        channel = ChannelStats(reservoir_capacity=50, seed=0)
        values = _values(16, 400)
        for value in values:
            channel.observe(value)
        assert not channel.exact
        exact = sorted(values)[int(0.95 * 399)]
        assert channel.percentile(95.0) == pytest.approx(exact, rel=0.06)


class _FakeLatency:
    def __init__(self):
        self.scheduling_ms = 2.0
        self.cold_start_ms = 0.0
        self.queuing_ms = 1.0
        self.execution_ms = 47.0


class _FakeInvocation:
    def __init__(self, e2e: float, error=None):
        self.error = error
        self.end_to_end_ms = e2e
        self.response_latency_ms = e2e
        self.latency = _FakeLatency()


class TestStreamingResultSink:
    def test_counts_and_channels(self):
        sink = StreamingResultSink()
        sink.observe_invocation(_FakeInvocation(50.0))
        sink.observe_invocation(_FakeInvocation(70.0))
        sink.observe_invocation(_FakeInvocation(0.0, error=RuntimeError()))
        assert sink.completed == 2
        assert sink.failed == 1
        assert sink.channel(sink.E2E).count == 2
        assert sink.latency_percentile(100.0) == 70.0

    def test_merge_permutations_agree_exactly(self):
        shards = []
        for seed in range(4):
            sink = StreamingResultSink(reservoir_capacity=200, seed=seed)
            for value in _values(20 + seed, 80):
                sink.observe_invocation(_FakeInvocation(value))
            shards.append(sink.to_dict())
        outcomes = []
        for order in itertools.permutations(range(4)):
            merged = StreamingResultSink.merged(
                [StreamingResultSink.from_dict(shards[i]) for i in order])
            outcomes.append((merged.completed,
                             merged.channel(merged.E2E).reservoir.values(),
                             [merged.latency_percentile(q)
                              for q in (50, 95, 99)]))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_merged_equals_single_sink_below_cap(self):
        values = _values(30, 300)
        single = StreamingResultSink(reservoir_capacity=1000, seed=7)
        for value in values:
            single.observe_invocation(_FakeInvocation(value))
        parts = []
        for start in range(0, 300, 100):
            part = StreamingResultSink(reservoir_capacity=1000,
                                       seed=100 + start)
            for value in values[start:start + 100]:
                part.observe_invocation(_FakeInvocation(value))
            parts.append(part)
        merged = StreamingResultSink.merged(parts)
        assert merged.completed == single.completed
        assert merged.channel(merged.E2E).reservoir.values() \
            == single.channel(single.E2E).reservoir.values()
        for q in (50.0, 95.0, 98.0, 99.0):
            assert merged.latency_percentile(q) \
                == single.latency_percentile(q)

    def test_merge_rejects_mismatched_capacity(self):
        with pytest.raises(ValueError):
            StreamingResultSink(reservoir_capacity=10).merge(
                StreamingResultSink(reservoir_capacity=20))

    def test_round_trips_through_json(self):
        sink = StreamingResultSink(reservoir_capacity=64, seed=5)
        for value in _values(31, 50):
            sink.observe_invocation(_FakeInvocation(value))
        clone = StreamingResultSink.from_dict(
            json.loads(json.dumps(sink.to_dict())))
        assert clone.completed == sink.completed
        assert clone.channel(clone.E2E).reservoir.values() \
            == sink.channel(sink.E2E).reservoir.values()
        assert clone.summary() == sink.summary()

    def test_summary_shape(self):
        sink = StreamingResultSink()
        for value in _values(32, 40):
            sink.observe_invocation(_FakeInvocation(value))
        summary = sink.summary()
        assert summary["count"] == 40
        assert summary["exact"] is True
        for key in ("mean", "min", "max", "p50", "p95", "p98", "p99"):
            assert isinstance(summary[key], float)


# -- the per-sample accounting, frozen --------------------------------------
#
# A copy of the one-sample-at-a-time sink (tuple heap, one observe per
# channel per completion), with only the bucket-edge fix applied.  The
# columnar sink must serialise to exactly the same bytes.


class _RefHistogram:
    def __init__(self):
        self.minimum, self.growth, self.buckets = 0.01, 1.05, 426
        self.counts = {}
        self.underflow = 0
        self.total = 0

    def observe(self, value):
        if value < 0 or math.isnan(value):
            raise ValueError(value)
        self.total += 1
        if value < self.minimum:
            self.underflow += 1
            return
        index = min(int(math.log(value / self.minimum)
                        / math.log(self.growth)), self.buckets - 1)
        while index > 0 and value < self.minimum * self.growth ** index:
            index -= 1
        while (index + 1 < self.buckets
               and value >= self.minimum * self.growth ** (index + 1)):
            index += 1
        self.counts[index] = self.counts.get(index, 0) + 1

    def merge(self, other):
        self.underflow += other.underflow
        self.total += other.total
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count

    def quantile(self, q):
        rank = q * (self.total - 1)
        seen = self.underflow
        if rank < seen:
            return 0.0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if rank < seen:
                return (self.minimum * self.growth ** index
                        * math.sqrt(self.growth))

    def to_dict(self):
        return {"min": self.minimum, "growth": self.growth,
                "buckets": self.buckets, "underflow": self.underflow,
                "counts": {str(k): v for k, v in sorted(self.counts.items())}}


class _RefReservoir:
    def __init__(self, capacity, seed):
        self.capacity = capacity
        self.seen = 0
        self.heap = []
        self.rng = random.Random(seed)

    def observe(self, value):
        self.seen += 1
        self.insert(self.rng.random(), float(value))

    def insert(self, priority, value):
        item = (-priority, value)
        if len(self.heap) < self.capacity:
            heapq.heappush(self.heap, item)
        elif item > self.heap[0]:
            heapq.heapreplace(self.heap, item)

    def merge(self, other):
        self.seen += other.seen
        for neg, value in other.heap:
            self.insert(-neg, value)

    def to_dict(self):
        items = sorted((-neg, value) for neg, value in self.heap)
        return {"capacity": self.capacity, "seen": self.seen,
                "priorities": _packed(*(p for p, _v in items)),
                "values": _packed(*(v for _p, v in items))}


class _RefChannel:
    def __init__(self, capacity, seed):
        self.count, self.total, self.squares = 0, 0.0, 0.0
        self.minimum, self.maximum = math.inf, -math.inf
        self.histogram = _RefHistogram()
        self.reservoir = _RefReservoir(capacity, seed)

    def observe(self, value):
        if math.isnan(value):
            raise ValueError(value)
        value = float(value)
        self.count += 1
        self.total += value
        self.squares += value * value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.histogram.observe(value)
        self.reservoir.observe(value)

    def merge(self, other):
        self.count += other.count
        self.total += other.total
        self.squares += other.squares
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.histogram.merge(other.histogram)
        self.reservoir.merge(other.reservoir)

    def percentile(self, q):
        if self.reservoir.seen <= self.reservoir.capacity:
            return SampleStats(sorted(
                v for _n, v in self.reservoir.heap)).percentile(q)
        return self.histogram.quantile(q / 100.0)

    def to_dict(self):
        empty = self.count == 0
        return {"stats": {"count": self.count, "total": self.total,
                          "sum_squares": self.squares,
                          "min": None if empty else self.minimum,
                          "max": None if empty else self.maximum},
                "histogram": self.histogram.to_dict(),
                "reservoir": self.reservoir.to_dict()}


class _RefSink:
    NAMES = ("e2e_ms", "response_ms", "scheduling_ms", "cold_start_ms",
             "queuing_ms", "execution_ms")

    def __init__(self, capacity, seed):
        self.capacity, self.seed = capacity, seed
        self.channels = {}
        self.counters = {}

    def channel(self, name):
        if name not in self.channels:
            self.channels[name] = _RefChannel(
                self.capacity, self.seed ^ zlib.crc32(name.encode()))
        return self.channels[name]

    def observe_invocation(self, invocation):
        key = "failed" if invocation.error is not None else "completed"
        self.counters[key] = self.counters.get(key, 0) + 1
        if invocation.error is None:
            latency = invocation.latency
            for name, value in zip(self.NAMES, (
                    invocation.end_to_end_ms,
                    invocation.response_latency_ms, latency.scheduling_ms,
                    latency.cold_start_ms, latency.queuing_ms,
                    latency.execution_ms)):
                self.channel(name).observe(value)

    def merge(self, other):
        for name, channel in other.channels.items():
            self.channel(name).merge(channel)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def summary(self):
        channel = self.channel("e2e_ms")
        if channel.count == 0:
            return {"count": 0}
        return {"count": channel.count,
                "exact": channel.reservoir.seen <= self.capacity,
                "mean": round(channel.total / channel.count, 3),
                "min": round(channel.minimum, 3),
                "max": round(channel.maximum, 3),
                **{f"p{q}": round(channel.percentile(float(q)), 3)
                   for q in (50, 95, 98, 99)}}

    def to_dict(self):
        return {"reservoir_capacity": self.capacity, "seed": self.seed,
                "counters": dict(sorted(self.counters.items())),
                "channels": {name: channel.to_dict() for name, channel
                             in sorted(self.channels.items())}}


class _Completion:
    def __init__(self, values, failed):
        self.error = RuntimeError("boom") if failed else None
        self.end_to_end_ms, self.response_latency_ms = values[:2]
        self.latency = _FakeLatency()
        (self.latency.scheduling_ms, self.latency.cold_start_ms,
         self.latency.queuing_ms, self.latency.execution_ms) = values[2:]


_LATENCY = st.one_of(
    st.integers(0, 10**6),
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.01, 0.0105, 1.05 ** 40 * 0.01, 2.0, 1e9]))
_COMPLETION = st.tuples(st.tuples(*[_LATENCY] * 6),
                        st.sampled_from([False, False, False, True]))
_COMPLETIONS = st.lists(_COMPLETION, max_size=40)
_OP = st.one_of(
    st.tuples(st.just("observe"), _COMPLETIONS),
    st.tuples(st.just("read"), st.sampled_from(
        ["summary", "to_dict", "e2e_ms", "queuing_ms", "unknown_ms"])),
    st.tuples(st.just("direct"), st.sampled_from(["e2e_ms", "extra_ms"]),
              _LATENCY),
    st.tuples(st.just("merge"), st.integers(0, 1000), _COMPLETIONS,
              st.booleans()))


class TestColumnarSinkMatchesPerSample:
    """The chunked, columnar sink serialises to the per-sample bytes."""

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 20), seed=st.integers(0, 2**16),
           chunk=st.integers(1, 9), ops=st.lists(_OP, max_size=8))
    def test_byte_identical_to_the_per_sample_sink(self, capacity, seed,
                                                   chunk, ops):
        def feed(sinks, completions):
            for values, failed in completions:
                for target in sinks:
                    target.observe_invocation(_Completion(values, failed))
                assert len(sink._pending) <= 6 * chunk

        with mock.patch.object(StreamingResultSink, "_CHUNK", chunk):
            sink = StreamingResultSink(reservoir_capacity=capacity,
                                       seed=seed)
            ref = _RefSink(capacity, seed)
            for op in ops:
                if op[0] == "observe":
                    feed((sink, ref), op[1])
                elif op[0] == "direct":
                    sink.channel(op[1]).observe(op[2])
                    ref.channel(op[1]).observe(op[2])
                elif op[0] == "merge":
                    _, other_seed, completions, wire = op
                    other = StreamingResultSink(capacity, other_seed)
                    ref_other = _RefSink(capacity, other_seed)
                    feed((other, ref_other), completions)
                    if wire:
                        other = StreamingResultSink.from_dict(
                            json.loads(json.dumps(other.to_dict())))
                    sink.merge(other)
                    ref.merge(ref_other)
                elif op[1] == "summary":
                    assert sink.summary() == ref.summary()
                elif op[1] == "to_dict":
                    assert json.dumps(sink.to_dict()) \
                        == json.dumps(ref.to_dict())
                else:
                    assert json.dumps(sink.channel(op[1]).to_dict()) \
                        == json.dumps(ref.channel(op[1]).to_dict())
            assert json.dumps(sink.to_dict()) == json.dumps(ref.to_dict())
            assert sink.summary() == ref.summary()

    def test_pending_buffer_is_folded_at_one_chunk(self):
        sink = StreamingResultSink(reservoir_capacity=8)
        for value in range(3 * sink._CHUNK + 5):
            sink.observe_invocation(_FakeInvocation(float(value)))
            assert len(sink._pending) < 6 * sink._CHUNK
        assert len(sink._pending) == 6 * 5
        assert sink.channel(sink.E2E).count == 3 * sink._CHUNK + 5
        assert len(sink._pending) == 0

    def test_bad_latency_raises_at_the_fold(self):
        sink = StreamingResultSink()
        sink.observe_invocation(_FakeInvocation(float("nan")))
        with pytest.raises(ValueError):
            sink.to_dict()
        sink.observe_invocation(_FakeInvocation(-1.0))
        with pytest.raises(ValueError):
            sink.summary()
