"""The two front doors of the run driver agree.

``run_experiment`` and a one-worker, one-shard ``run_sharded_cluster`` run
the same worker simulation on the tiled trace.  They differ by design in
one respect: the single run samples resources at 1 Hz, the shard does not,
so its kernel processes exactly one event per sampler tick fewer.  Each
sample reads the CPU's busy time, which settles the fair-share clocks at
the tick, so a latency may differ between the two in its last bits; every
figure the sink publishes (three decimals) is identical.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedClusterConfig, run_sharded_cluster
from repro.common.streaming import StreamingResultSink
from repro.platformsim import run_experiment
from repro.workload.generator import fib_family_specs


@pytest.fixture(scope="module", params=[
    ("Vanilla", 400), ("Vanilla", 1500),
    ("FaaSBatch", 400), ("FaaSBatch", 1500)],
    ids=lambda param: f"{param[0]}-{param[1]}")
def both_doors(request):
    scheduler, invocations = request.param
    config = ShardedClusterConfig(invocations=invocations, functions=8,
                                  seed=13, workers=1, shards=1,
                                  scheduler=scheduler)
    cluster = run_sharded_cluster(config, isolate=False)
    single = run_experiment(config.scheduler_factory()(),
                            config.shard_stream(0).materialize(),
                            fib_family_specs(config.functions))
    return single, cluster


def test_latency_percentiles_agree(both_doors):
    single, cluster = both_doors
    stats = single.latency_stats()
    for q in (50.0, 95.0):
        assert stats.percentile(q) == pytest.approx(
            cluster.sink.latency_percentile(q), rel=1e-12, abs=0.0)
        assert round(stats.percentile(q), 3) == \
            cluster.sink.summary()[f"p{q:.0f}"]


def test_containers_and_completion_identical(both_doors):
    single, cluster = both_doors
    (shard,) = cluster.shard_results
    assert shard.per_worker_containers == [single.provisioned_containers]
    assert single.completion_ms == cluster.completion_ms


def test_sink_summaries_identical(both_doors):
    single, cluster = both_doors
    sink = StreamingResultSink(seed=cluster.sink.seed)
    for invocation in single.invocations:
        sink.observe_invocation(invocation)
    assert sink.summary() == cluster.sink.summary()
    assert sink.failed == cluster.sink.failed == 0


def test_kernel_events_differ_by_the_sampler_ticks(both_doors):
    single, cluster = both_doors
    assert single.kernel_events - cluster.kernel_events == len(single.samples)
