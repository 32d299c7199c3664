"""Bounded accounting: online stats, mergeable sketches, the result sink."""

from __future__ import annotations

import base64
import itertools
import json
import random
import struct

import pytest

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


def _bits(reservoir):
    """Kept (priority, value) pairs as raw float64 bit patterns."""
    return sorted((struct.pack("<d", -neg), struct.pack("<d", value))
                  for neg, value in reservoir._heap)


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
        slow = BoundedReservoir.from_dict(left.to_dict())
        slow.seen += right.seen
        for neg, value in right._heap:
            slow._insert(-neg, value)
        assert fast.seen == slow.seen == capacity + union
        assert _bits(fast) == _bits(slow)
        assert len(fast._heap) == min(capacity, capacity + union)
        assert fast._heap[0] == min(fast._heap)  # still a heap


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
