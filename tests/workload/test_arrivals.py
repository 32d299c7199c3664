"""Tests for arrival processes."""

from __future__ import annotations

import random

import pytest

from repro.common.errors import WorkloadError
from repro.workload.arrivals import (
    Burst,
    bursty_arrivals,
    per_second_counts,
)


class TestBurst:
    def test_sample_size_and_window(self):
        burst = Burst(start_ms=100.0, width_ms=50.0, count=20)
        samples = burst.sample(random.Random(0))
        assert len(samples) == 20
        assert all(100.0 <= s <= 150.0 for s in samples)
        assert samples == sorted(samples)

    def test_invalid_burst_rejected(self):
        with pytest.raises(WorkloadError):
            Burst(0.0, 0.0, 5).sample(random.Random(0))


class TestBurstyArrivals:
    def test_exact_total(self):
        rng = random.Random(0)
        bursts = [Burst(1_000.0, 500.0, 50), Burst(5_000.0, 500.0, 50)]
        arrivals = bursty_arrivals(10_000.0, total=150, bursts=bursts,
                                   rng=rng)
        assert len(arrivals) == 150
        assert arrivals == sorted(arrivals)

    def test_oversized_bursts_subsampled(self):
        rng = random.Random(0)
        bursts = [Burst(100.0, 100.0, 500)]
        arrivals = bursty_arrivals(1_000.0, total=100, bursts=bursts,
                                   rng=rng)
        assert len(arrivals) == 100

    def test_burst_outside_window_rejected(self):
        rng = random.Random(0)
        with pytest.raises(WorkloadError):
            bursty_arrivals(1_000.0, 10, [Burst(5_000.0, 10.0, 5)], rng)

    def test_negative_total_rejected(self):
        with pytest.raises(WorkloadError):
            bursty_arrivals(1_000.0, -1, [], random.Random(0))


class TestPerSecondCounts:
    def test_bucketing(self):
        counts = per_second_counts([0.0, 500.0, 999.9, 1_000.0, 2_500.0],
                                   duration_ms=3_000.0)
        assert counts == [3, 1, 1]

    def test_total_preserved(self):
        rng = random.Random(3)
        arrivals = sorted(rng.random() * 10_000.0 for _ in range(200))
        counts = per_second_counts(arrivals, 10_000.0)
        assert sum(counts) == len(arrivals)
        assert len(counts) == 10

    def test_out_of_window_rejected(self):
        with pytest.raises(WorkloadError):
            per_second_counts([5_000.0], duration_ms=1_000.0)
