"""Cluster extension: multiple workers + routing policies (beyond §IV's scope)."""

from repro.cluster.balancer import (
    BALANCERS,
    Balancer,
    FunctionAffinityBalancer,
    HashPartitionBalancer,
    LeastLoadedBalancer,
    RoundRobinBalancer,
    make_balancer,
    stable_hash,
)
from repro.cluster.experiment import (
    ClusterResult,
    compare_balancers,
    run_cluster_experiment,
)

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
