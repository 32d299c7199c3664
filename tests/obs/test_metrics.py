"""Tests for the metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_moves_both_directions(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(3.0)
        assert gauge.value == pytest.approx(3.0)


class TestHistogram:
    def test_bucketing_is_half_open(self):
        histogram = Histogram("h", edges=(1.0, 10.0, 100.0))
        histogram.observe(0.5)    # underflow
        histogram.observe(1.0)    # [1, 10)
        histogram.observe(9.99)   # [1, 10)
        histogram.observe(10.0)   # [10, 100)
        histogram.observe(100.0)  # tail
        assert histogram.counts == [1, 2, 1, 1]
        assert histogram.count == 5

    def test_exact_moments(self):
        histogram = Histogram("h", edges=(1.0, 10.0))
        for value in (2.0, 4.0, 6.0):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(4.0)
        assert histogram.min == pytest.approx(2.0)
        assert histogram.max == pytest.approx(6.0)

    def test_mean_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(1.0, 2.0)).mean

    def test_quantile_returns_bucket_edge(self):
        histogram = Histogram("h", edges=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0, 50.0, 60.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == pytest.approx(10.0)

    def test_quantile_extremes_are_exact(self):
        # q=0 / q=1 return the tracked min/max, not a bucket boundary.
        histogram = Histogram("h", edges=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0, 50.0, 60.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(2.0)
        assert histogram.quantile(1.0) == pytest.approx(60.0)

    def test_quantile_interpolates_in_underflow_bucket(self):
        # All mass below the first edge: interpolate between the observed
        # min and min(first edge, observed max).
        histogram = Histogram("h", edges=(10.0, 100.0))
        for value in (2.0, 4.0, 6.0, 8.0):
            histogram.observe(value)
        # target = 0.5 * 4 = 2 samples -> fraction 0.5 of [2, 8].
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        assert 2.0 <= histogram.quantile(0.25) <= 8.0

    def test_quantile_interpolates_in_tail_bucket(self):
        # All mass at/above the last edge: interpolate between
        # max(last edge, observed min) and the observed max.
        histogram = Histogram("h", edges=(1.0, 10.0))
        for value in (20.0, 40.0, 60.0, 80.0):
            histogram.observe(value)
        # lo = max(10, 20) = 20; fraction 0.5 of [20, 80] -> 50.
        assert histogram.quantile(0.5) == pytest.approx(50.0)
        assert histogram.quantile(0.999) <= 80.0

    def test_quantile_validates_inputs(self):
        histogram = Histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(0.5)  # empty
        histogram.observe(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(1.0001)  # never clamped, even when nonempty

    def test_bucket_rows_label_only_nonempty(self):
        histogram = Histogram("h", edges=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(12.0)
        assert histogram.bucket_rows() == [
            ("(-inf, 1)", 1), ("[10, inf)", 1)]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(1.0,))
        with pytest.raises(ValueError):
            Histogram("h", edges=(5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", edges=(1.0, 1.0, 2.0))


class TestRegistry:
    def test_create_or_get_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert len(registry) == 3
        assert "x" in registry and "missing" not in registry

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_sorted_and_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.gauge("a.level").set(7.0)
        registry.histogram("m.lat", edges=DEFAULT_SIZE_EDGES).observe(3.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a.level", "m.lat", "z.count"]
        assert snapshot["z.count"] == {"type": "counter", "value": 2.0}
        assert snapshot["m.lat"]["count"] == 1
        json.dumps(snapshot)  # must not raise

    def test_identical_runs_produce_identical_snapshots(self):
        def build():
            registry = MetricsRegistry()
            for value in (1.0, 5.0, 500.0):
                registry.histogram("lat").observe(value)
            registry.counter("n").inc(3)
            return registry.snapshot()

        assert json.dumps(build()) == json.dumps(build())

