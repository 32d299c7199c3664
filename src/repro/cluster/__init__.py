"""Cluster extension: multiple workers + routing policies (beyond §IV's scope)."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.cluster.balancer": (
        "BALANCERS", "Balancer", "FunctionAffinityBalancer",
        "HashPartitionBalancer", "LeastLoadedBalancer", "RoundRobinBalancer",
        "make_balancer", "stable_hash"),
    "repro.cluster.experiment": (
        "ClusterResult", "compare_balancers", "run_cluster_experiment"),
})

__all__ = [
    "BALANCERS",
    "Balancer",
    "ClusterResult",
    "FunctionAffinityBalancer",
    "HashPartitionBalancer",
    "LeastLoadedBalancer",
    "RoundRobinBalancer",
    "compare_balancers",
    "make_balancer",
    "run_cluster_experiment",
    "stable_hash",
]
