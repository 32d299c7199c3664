"""Tests for the cluster extension: routing, results and whole runs."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterResult,
    ShardedClusterConfig,
    run_sharded_cluster,
    stable_hash,
)
from repro.common.errors import ConfigurationError
from repro.common.streaming import StreamingResultSink


class TestRouting:
    def test_stable_hash_is_stable(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")


class TestScaleFeatures:
    def test_load_imbalance_zero_when_all_idle(self):
        """Regression: an all-idle cluster used to divide by zero."""
        result = ClusterResult(
            per_worker_invocations=[0, 0], per_worker_containers=[0, 0],
            per_worker_memory_mb=[0.0, 0.0], completion_ms=0.0,
            sink=StreamingResultSink())
        assert result.load_imbalance() == 0.0
        empty = ClusterResult(
            per_worker_invocations=[], per_worker_containers=[],
            per_worker_memory_mb=[], completion_ms=0.0,
            sink=StreamingResultSink())
        assert empty.load_imbalance() == 0.0


class TestClusterExperiment:
    def test_all_invocations_complete(self):
        result = run_sharded_cluster(ShardedClusterConfig(
            invocations=120, functions=4, tile_invocations=120, workers=2,
            shards=1), isolate=False)
        assert result.completed == 120
        assert result.sink.failed == 0
        assert sum(result.per_worker_invocations()) == 120

    def test_single_worker_cluster_matches_scale(self):
        result = run_sharded_cluster(ShardedClusterConfig(
            invocations=60, functions=1, tile_invocations=60, workers=1,
            shards=1, scheduler="Vanilla"), isolate=False)
        view = result.to_cluster_result()
        assert view.per_worker_invocations == [60]
        assert view.load_imbalance() == pytest.approx(1.0)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedClusterConfig(workers=0)
