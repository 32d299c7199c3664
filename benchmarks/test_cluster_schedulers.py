"""Extension bench — FaaSBatch on a cluster: schedulers side by side.

The paper evaluates a single worker; this bench replays 400 bursty
invocations of 8 functions over 4 workers and compares Vanilla with
FaaSBatch.  Each function has one home worker
(``stable_hash(function_id) % workers``), so a function's burst stays
whole and FaaSBatch's grouping works per worker as it does on one machine.
"""

from __future__ import annotations

from repro.analysis import emit
from repro.cluster import ShardedClusterConfig, run_sharded_cluster

WORKERS = 4
FUNCTIONS = 8
TOTAL = 400
SCHEDULERS = ("Vanilla", "FaaSBatch")
HEADERS = ["scheduler", "workers", "containers", "peak_mem_MB", "p50_ms",
           "p98_ms", "imbalance"]


def run_comparison_bench():
    return {name: run_sharded_cluster(ShardedClusterConfig(
                invocations=TOTAL, functions=FUNCTIONS,
                tile_invocations=TOTAL, workers=WORKERS, shards=1,
                scheduler=name), isolate=False)
            for name in SCHEDULERS}


def test_cluster_schedulers(benchmark):
    results = benchmark.pedantic(run_comparison_bench, rounds=1,
                                 iterations=1)
    rows = []
    for name, result in results.items():
        view = result.to_cluster_result()
        rows.append([name, WORKERS, sum(view.per_worker_containers),
                     round(sum(view.per_worker_memory_mb), 1),
                     round(result.sink.latency_percentile(50.0), 1),
                     round(result.sink.latency_percentile(98.0), 1),
                     round(view.load_imbalance(), 2)])
    emit("ext_cluster_schedulers", HEADERS, rows,
         title=f"Extension — {WORKERS} workers, {FUNCTIONS} functions, "
               f"{TOTAL} invocations, per scheduler")

    for result in results.values():
        assert result.completed == TOTAL
        assert result.sink.failed == 0
    # Batching survives the cluster: FaaSBatch provisions far fewer
    # containers than Vanilla on the same routed trace.
    vanilla, faasbatch = (sum(results[name].to_cluster_result()
                              .per_worker_containers)
                          for name in SCHEDULERS)
    assert faasbatch < vanilla
