"""Tests for the graceful-degradation monitor (flip + recovery logic)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.gateway.degradation import (
    MODE_BATCH,
    MODE_VANILLA,
    DegradationConfig,
    DegradationMonitor,
)
from repro.common.stats import percentile


class TestPercentile:
    """The monitor's p99 uses the one percentile rule of common.stats."""

    def test_interpolates_between_closest_ranks(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 99) == pytest.approx(99.01)
        assert percentile(samples, 100) == 100

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


def make_monitor(**kwargs) -> DegradationMonitor:
    defaults = dict(enabled=True, window_size=16, min_samples=4,
                    probe_every=4, margin=1.5, cooldown=8)
    defaults.update(kwargs)
    return DegradationMonitor(DegradationConfig(**defaults))


def feed(monitor: DegradationMonitor, mode: str, latency_ms: float,
         count: int) -> None:
    for _ in range(count):
        monitor.record(mode, latency_ms)


class TestDegradationConfig:
    @pytest.mark.parametrize("kwargs", [
        {"window_size": 0},
        {"min_samples": 0},
        {"min_samples": 99, "window_size": 16},
        {"probe_every": 1},
        {"margin": 0.9},
        {"cooldown": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            DegradationConfig(**kwargs)


class TestDegradationMonitor:
    def test_probes_every_nth_request(self):
        monitor = make_monitor(probe_every=4)
        modes = [monitor.choose() for _ in range(8)]
        assert modes == [MODE_BATCH, MODE_BATCH, MODE_BATCH, MODE_VANILLA,
                         MODE_BATCH, MODE_BATCH, MODE_BATCH, MODE_VANILLA]

    def test_disabled_monitor_never_probes_or_flips(self):
        monitor = make_monitor(enabled=False)
        assert all(monitor.choose() == MODE_BATCH for _ in range(20))
        feed(monitor, MODE_BATCH, 100.0, 10)
        feed(monitor, MODE_VANILLA, 1.0, 10)
        assert monitor.mode == MODE_BATCH
        assert monitor.flips == []

    def test_flips_when_batching_loses(self):
        monitor = make_monitor()
        feed(monitor, MODE_VANILLA, 1.0, 4)
        feed(monitor, MODE_BATCH, 100.0, 4)
        assert monitor.mode == MODE_VANILLA
        [flip] = monitor.flips
        assert flip["from"] == MODE_BATCH
        assert flip["to"] == MODE_VANILLA
        assert flip["loser_p99_ms"] > flip["winner_p99_ms"]

    def test_no_flip_within_margin(self):
        monitor = make_monitor(margin=2.0)
        feed(monitor, MODE_VANILLA, 10.0, 8)
        feed(monitor, MODE_BATCH, 15.0, 8)  # loses, but under 2x margin
        assert monitor.mode == MODE_BATCH
        assert monitor.flips == []

    def test_flip_clears_windows_and_respects_cooldown(self):
        monitor = make_monitor(cooldown=100)
        feed(monitor, MODE_VANILLA, 1.0, 4)
        feed(monitor, MODE_BATCH, 100.0, 4)
        assert monitor.mode == MODE_VANILLA
        stats = monitor.stats()
        assert stats["samples"] == {MODE_BATCH: 0, MODE_VANILLA: 0}
        # Evidence that would flip immediately is held by the cooldown.
        feed(monitor, MODE_VANILLA, 100.0, 4)
        feed(monitor, MODE_BATCH, 1.0, 4)
        assert monitor.mode == MODE_VANILLA
        assert len(monitor.flips) == 1

    def test_flip_and_recovery(self):
        monitor = make_monitor(cooldown=0)
        feed(monitor, MODE_VANILLA, 1.0, 4)
        feed(monitor, MODE_BATCH, 100.0, 4)
        assert monitor.mode == MODE_VANILLA
        # Probes now show batching winning again -> flip back.
        feed(monitor, MODE_BATCH, 1.0, 4)
        feed(monitor, MODE_VANILLA, 100.0, 4)
        assert monitor.mode == MODE_BATCH
        assert [f["to"] for f in monitor.flips] == \
            [MODE_VANILLA, MODE_BATCH]
