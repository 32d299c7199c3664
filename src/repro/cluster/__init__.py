"""Cluster extension: one trace replayed over several workers (beyond §IV's
scope), sharded across processes by :mod:`repro.cluster.sharded`."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.cluster.sharded": (
        "ClusterResult", "PROGRESS_EVERY", "SHARD_SCHEDULERS", "ShardResult",
        "ShardedClusterConfig", "ShardedClusterResult",
        "merge_shard_results", "run_shard", "run_sharded_cluster",
        "stable_hash"),
})

__all__ = [
    "ClusterResult",
    "PROGRESS_EVERY",
    "SHARD_SCHEDULERS",
    "ShardResult",
    "ShardedClusterConfig",
    "ShardedClusterResult",
    "merge_shard_results",
    "run_shard",
    "run_sharded_cluster",
    "stable_hash",
]
