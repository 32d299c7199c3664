"""Extension bench — FaaSBatch on a cluster: routing vs batching.

The paper evaluates a single worker; this bench extends to 4 workers and
measures how routing policy interacts with FaaSBatch's batching.  Function
affinity keeps each function's burst on one worker (big groups, few
containers).  On this trace round-robin does too: function ids are dealt
round-robin by arrival rank (8 functions, 4 workers), so round-robin sends
``fib-k`` only to worker ``k mod 4``, and the two provision the same 30
containers.  Affinity never spills here, so it behaves as hash-partition.
Only least-loaded scatters a burst across workers (62 containers).
"""

from __future__ import annotations

from repro.analysis import emit
from repro.cluster import ClusterResult, compare_balancers
from repro.core import FaaSBatchScheduler
from repro.workload import fib_family_specs, multi_function_trace

WORKERS = 4
FUNCTIONS = 8
TOTAL = 400


def run_comparison_bench():
    trace = multi_function_trace(total=TOTAL, functions=FUNCTIONS)
    specs = fib_family_specs(FUNCTIONS)
    return compare_balancers(FaaSBatchScheduler, trace, specs,
                             workers=WORKERS)


def test_cluster_routing(benchmark):
    results = benchmark.pedantic(run_comparison_bench, rounds=1,
                                 iterations=1)
    rows = [result.summary_row() for result in results.values()]
    emit("ext_cluster_routing", ClusterResult.SUMMARY_HEADERS, rows,
         title=f"Extension — FaaSBatch x {WORKERS} workers, "
               f"{FUNCTIONS} functions, {TOTAL} invocations")

    affinity = results["function-affinity"]
    round_robin = results["round-robin"]
    least_loaded = results["least-loaded"]

    for result in results.values():
        assert len(result.invocations) == TOTAL

    # Affinity preserves grouping: no more containers than the others.
    assert affinity.total_containers <= round_robin.total_containers
    assert affinity.total_containers <= least_loaded.total_containers
    # Round-robin balances load best; affinity trades balance for locality.
    assert round_robin.load_imbalance() <= \
        affinity.load_imbalance() + 0.25
