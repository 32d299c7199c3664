#!/usr/bin/env python3
"""FaaSBatch on a small cluster: Vanilla vs FaaSBatch over four workers.

The paper evaluates one worker; this example replays a bursty trace of
eight functions over four.  Each function has one home worker (its id's
stable hash modulo the worker count), so a function's burst stays on one
machine and FaaSBatch groups it there as it would on a single worker.

Run:  python examples/cluster_scheduling.py
"""

from __future__ import annotations

from repro.cluster import ShardedClusterConfig, run_sharded_cluster
from repro.common.tables import render_table

WORKERS = 4
FUNCTIONS = 8
TOTAL = 400


def main() -> None:
    print(f"Routing {TOTAL} invocations of {FUNCTIONS} functions across "
          f"{WORKERS} workers...\n")
    rows = []
    per_worker = {}
    for name in ("Vanilla", "FaaSBatch"):
        result = run_sharded_cluster(ShardedClusterConfig(
            invocations=TOTAL, functions=FUNCTIONS, tile_invocations=TOTAL,
            workers=WORKERS, shards=1, scheduler=name), isolate=False)
        view = result.to_cluster_result()
        per_worker[name] = view.per_worker_containers
        rows.append([name, sum(view.per_worker_containers),
                     round(sum(view.per_worker_memory_mb), 1),
                     round(result.sink.latency_percentile(50.0), 1),
                     round(result.sink.latency_percentile(98.0), 1),
                     round(view.load_imbalance(), 2)])
    print(render_table(["scheduler", "containers", "peak_mem_MB", "p50_ms",
                        "p98_ms", "imbalance"], rows,
                       title=f"{WORKERS} workers, per scheduler"))

    for name, containers in per_worker.items():
        listed = ", ".join(str(count) for count in containers)
        print(f"  {name:10s} containers per worker: [{listed}]")

    print("\nEach worker batches its functions' bursts on its own, so "
          "FaaSBatch\nprovisions a fraction of Vanilla's containers on "
          "the same routed trace.")


if __name__ == "__main__":
    main()
