"""The batch family: three single-machine simulator runs and one sharded replay.

Every workload here is a fixed amount of simulated work repeated K times in
one process.  Latency and goodput are *simulated* milliseconds — a pure
function of the inputs, so they must come out identical on every repetition
— and everything else is *host* time, taken from the fastest repetition.

Inputs.  The scenario is the repo's dense replay minute (the burst pattern
and duration draws ROADMAP's measurements use, scenario seed 13): its
simulated latency moves by 25-100 % between scenario seeds, far more than
any change this benchmark is meant to resolve, so ``--seed`` does not pick
another scenario.  It picks the minute's density instead: ``4000 - (seed -
13) mod 32`` invocations per minute, which moves every arrival instant and
every queueing interleaving while the offered load stays within 1 %.  Seed
13 is exactly the ROADMAP scenario, and ``expected/`` pins it.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from macrobench.measure import (
    DEFAULT_SEED,
    Outcome,
    Repetition,
    best_of,
    no_span,
    rep_spread,
    repeat,
    summaries_identical,
    timed,
)

SCENARIO_SEED = 13
TILE_INVOCATIONS = 4000
DENSITY_STEPS = 32
FUNCTIONS = 8
WINDOW_MS = 200.0
#: Simulated latency limits behind ``slo_goodput_ratio``, placed where no
#: policy scores 0 or 1: on one machine Vanilla meets 30 s for about a
#: fifth of the minute and FaaSBatch for about 0.95; spread over four
#: workers FaaSBatch meets 10 s for about 0.97.
SIM_LIMIT_MS = 30_000.0
CLUSTER_LIMIT_MS = 10_000.0
MIN_REPS = 3

SIM_WARMUP_INVOCATIONS = 2000
CLUSTER_TILES = 5
CLUSTER_WORKERS = 4

#: workload -> (registry policy, observability on)
SIM_POLICIES = {
    "sim-vanilla-dense": ("vanilla", False),
    "sim-sfs-dense": ("sfs", False),
    "sim-faasbatch-obs": ("faasbatch", True),
}


def tile_invocations(seed: int, scale: float) -> int:
    """Invocations per replay minute for *seed* (see the module docstring)."""
    tile = TILE_INVOCATIONS - (seed - DEFAULT_SEED) % DENSITY_STEPS
    return max(40, int(tile * scale))


def batch_metrics(reps: Sequence[Repetition], ops: int) -> Dict[str, float]:
    """The end-to-end numbers of a batch workload from its K repetitions."""
    best = best_of(reps)
    summary = best.summary
    return {
        "ops_per_s": ops / best.wall_s,
        "cpu_ms_per_op": best.cpu_s * 1000.0 / ops,
        "latency_p50_ms": float(summary["p50_ms"]),  # type: ignore[arg-type]
        "latency_p95_ms": float(summary["p95_ms"]),  # type: ignore[arg-type]
        "slo_goodput_ratio": summary["within_limit"] / ops,  # type: ignore[operator]
    }


def batch_problems(reps: Sequence[Repetition]) -> List[str]:
    """Invariants that hold on any seed: all complete, reps identical."""
    summary = reps[0].summary
    problems = []
    if summary["completed"] != summary["submitted"]:
        problems.append(f"completed {summary['completed']} of "
                        f"{summary['submitted']} submitted")
    if summary["failed"] != 0:
        problems.append(f"{summary['failed']} invocations failed")
    if not summaries_identical(reps):
        problems.append("simulated summary differs between repetitions")
    return problems


def pool_layers(counters: Mapping[str, float], summary: Mapping[str, object],
                best: Repetition) -> Dict[str, float]:
    """Per-layer counts every simulator workload reads the same way."""
    ops = int(summary["submitted"])  # type: ignore[call-overload]
    events = int(summary["kernel_events"])  # type: ignore[call-overload]
    cold = counters.get("pool.cold_misses", 0.0)
    warm = counters.get("pool.warm_hits", 0.0)
    groups = counters.get("faasbatch.groups", 0.0)
    return {
        "sim.kernel.events": events,
        "sim.kernel.events_per_op": events / ops,
        "sim.kernel.us_per_event": best.wall_s * 1e6 / events,
        "model.pool.containers_per_kop":
            int(summary["containers"]) * 1000.0 / ops,  # type: ignore[call-overload]
        "model.pool.cold_starts": cold,
        "model.pool.warm_hit_ratio": warm / (warm + cold) if warm + cold else 0.0,
        "core.mapper.groups": groups,
        "core.mapper.mean_group_size": ops / groups if groups else 0.0,
    }


class _BatchWorkload:
    """K identical repetitions of ``run_once``; nothing to tear down."""

    name: str
    seconds: float
    ops: int

    def run_once(self, index: int) -> Repetition:
        raise NotImplementedError

    def measure(self) -> Outcome:
        reps = repeat(self.run_once, self.seconds, MIN_REPS)
        return self._outcome(reps, batch_metrics(reps, self.ops),
                             summary=reps[0].summary,
                             notes={"host.rep_spread": rep_spread(reps)})

    def _outcome(self, reps: Sequence[Repetition],
                 metrics: Dict[str, float], **extra) -> Outcome:
        return Outcome(attempted=self.ops * len(reps),
                       failed=sum(int(rep.summary["failed"])  # type: ignore[call-overload]
                                  for rep in reps),
                       metrics=metrics, problems=batch_problems(reps),
                       samples=self.ops, **extra)

    def close(self) -> None:
        pass


class SimWorkload(_BatchWorkload):
    """``run_experiment`` under one policy, over the shared dense trace."""

    def __init__(self, name: str, seed: int, seconds: float, scale: float,
                 span: Callable = no_span) -> None:
        from repro.baselines import SchedulerBuild, build_scheduler
        from repro.bench import BenchConfig, bench_trace
        from repro.obs import Observability
        from repro.platformsim import run_experiment
        from repro.workload.generator import fib_family_specs

        self.name = name
        self.seconds = seconds
        self.policy, self.obs_on = SIM_POLICIES[name]
        self._build = lambda: build_scheduler(
            self.policy, SchedulerBuild(window_ms=WINDOW_MS))
        self._observability = Observability
        self._run_experiment = run_experiment
        tile = tile_invocations(seed, scale)
        with span("workload.synth"):
            self.trace = bench_trace(BenchConfig(
                invocations=tile, functions=FUNCTIONS, tile_invocations=tile,
                window_ms=WINDOW_MS, seed=SCENARIO_SEED))
            self.specs = fib_family_specs(FUNCTIONS)
        self.ops = len(self.trace)
        self._simulate(self.trace.head(
            max(20, int(SIM_WARMUP_INVOCATIONS * scale))), self.obs_on)

    def _simulate(self, trace, obs_on: bool):
        obs = (self._observability(tracing=True, sampling=True)
               if obs_on else None)
        return self._run_experiment(
            self._build(), trace, self.specs, workload_label=self.name,
            strict_memory=False, obs=obs)

    def run_once(self, index: int, span: Callable = no_span,
                 obs_on: Optional[bool] = None,
                 want_layers: bool = False) -> Repetition:
        obs_on = self.obs_on if obs_on is None else obs_on
        with span("platformsim.run_experiment", trace_id=index):
            wall, cpu, result = timed(
                lambda: self._simulate(self.trace, obs_on))
        stats = result.latency_stats()
        good = result.successful_invocations()
        summary = {
            "submitted": self.ops,
            "completed": len(good),
            "failed": result.failure_count,
            "within_limit": sum(1 for inv in good
                                if inv.end_to_end_ms <= SIM_LIMIT_MS),
            "p50_ms": stats.median,
            "p95_ms": stats.percentile(95.0),
            "p99_ms": stats.percentile(99.0),
            "completion_ms": result.completion_ms,
            "containers": result.provisioned_containers,
            "kernel_events": result.kernel_events,
        }
        layers = None
        if want_layers:
            counters = {key: row["value"] for key, row
                        in result.metrics_snapshot().items()
                        if row["type"] == "counter"}
            layers = {"counters": counters, "spans": 0, "samples": 0}
            if obs_on:
                layers["spans"] = len(result.trace.spans())
                layers["samples"] = sum(len(result.sampler.series(series))
                                        for series in result.sampler.names())
        return Repetition(wall, cpu, summary, layers)

    def trace_layers(self, tracer) -> Outcome:
        seconds = self.seconds
        plain = repeat(self.run_once, seconds / 2.0, 2)
        with tracer.sampling():
            traced = repeat(
                lambda index: self.run_once(index, span=tracer.span,
                                            want_layers=True),
                seconds / 2.0, 2)
        best = best_of(plain)
        detail = traced[0].detail
        layers = tracer.self_seconds(per=len(traced))
        layers.update(pool_layers(detail["counters"], best.summary, best))
        layers["obs.spans_recorded"] = detail["spans"]
        layers["obs.samples_taken"] = detail["samples"]
        bare: List[Repetition] = []
        if self.obs_on:
            bare = repeat(lambda index: self.run_once(index, obs_on=False),
                          seconds / 4.0, 2)
            layers["obs.overhead_ratio"] = (best.wall_s
                                            / best_of(bare).wall_s)
        layers["workload.synth_s"] = tracer.total("workload.synth")
        layers["workload.records_synthesised"] = self.ops
        layers["host.rep_spread"] = rep_spread(plain + traced)
        layers["trace.overhead_ratio"] = best_of(traced).wall_s / best.wall_s
        return self._outcome(plain + traced + bare, layers)


class ClusterWorkload(_BatchWorkload):
    """``run_sharded_cluster``: FaaSBatch, 4 workers, subprocess shards."""

    def __init__(self, name: str, seed: int, seconds: float, scale: float,
                 span: Callable = no_span) -> None:
        from repro.cluster import sharded

        self.name = name
        self.seconds = seconds
        self._sharded = sharded
        tile = tile_invocations(seed, scale)
        self.config = sharded.ShardedClusterConfig(
            invocations=CLUSTER_TILES * tile, functions=FUNCTIONS,
            seed=SCENARIO_SEED, tile_invocations=tile,
            workers=CLUSTER_WORKERS, shards=min(2, os.cpu_count() or 1),
            scheduler="FaaSBatch", window_ms=WINDOW_MS)
        self.ops = self.config.invocations
        sharded.run_sharded_cluster(
            dataclasses.replace(self.config, invocations=tile))

    def _summarise(self, result) -> Dict[str, object]:
        sink = result.sink
        channel = sink.channel(sink.E2E)
        if not channel.exact:
            raise RuntimeError("latency reservoir overflowed; percentiles "
                               "would be approximate")
        return {
            "submitted": self.ops,
            "completed": result.completed,
            "failed": sink.failed,
            "within_limit": sum(1 for ms in channel.reservoir.values()
                                if ms <= CLUSTER_LIMIT_MS),
            "p50_ms": channel.percentile(50.0),
            "p95_ms": channel.percentile(95.0),
            "p99_ms": channel.percentile(99.0),
            "completion_ms": result.completion_ms,
            "containers": sum(sum(shard.per_worker_containers)
                              for shard in result.shard_results),
            "kernel_events": result.kernel_events,
        }

    def run_once(self, index: int) -> Repetition:
        wall, cpu, result = timed(
            lambda: self._sharded.run_sharded_cluster(self.config))
        layers = {
            "shard_walls": [shard.wall_clock_s
                            for shard in result.shard_results],
            "submitted": [shard.submitted for shard in result.shard_results],
            "counters": dict(result.obs.counters) if result.obs else {},
            "imbalance": result.to_cluster_result().load_imbalance(),
        }
        return Repetition(wall, cpu, self._summarise(result), layers)

    def run_inline(self, index: int, span: Callable = no_span) -> Repetition:
        """Every shard in this process, where the sampler can see it."""
        sharded = self._sharded

        def shards_then_merge():
            results = []
            for shard in range(self.config.shards):
                with span("cluster.run_shard", trace_id=index, shard=shard):
                    results.append(sharded.run_shard(self.config, shard))
            with span("cluster.merge", trace_id=index):
                return sharded.merge_shard_results(self.config, results, 0.0)

        wall, cpu, result = timed(shards_then_merge)
        return Repetition(wall, cpu, self._summarise(result))

    def trace_layers(self, tracer) -> Outcome:
        from repro.workload.generator import tiled_fib_stream

        config = self.config
        with tracer.span("workload.synth"):
            walked = sum(1 for _record in tiled_fib_stream(
                invocations=config.invocations, functions=config.functions,
                seed=config.seed, tile_invocations=config.tile_invocations))
        spawned = repeat(self.run_once, self.seconds / 2.0, 2)
        plain = repeat(self.run_inline, 0.0, 2)
        with tracer.sampling():
            traced = repeat(
                lambda index: self.run_inline(index, span=tracer.span), 0.0, 2)
        best = best_of(spawned)
        walls = best.detail["shard_walls"]
        submitted = best.detail["submitted"]
        layers = tracer.self_seconds(per=len(traced))
        layers.update(pool_layers(best.detail["counters"], best.summary,
                                  best))
        layers["workload.synth_s"] = tracer.total("workload.synth")
        layers["workload.records_synthesised"] = walked * config.shards
        layers["cluster.foreign_records_skipped"] = (
            walked * config.shards - sum(submitted))
        layers["cluster.shard_wall_max_s"] = max(walls)
        layers["cluster.shard_wall_sum_s"] = sum(walls)
        layers["cluster.shard_skew"] = max(walls) * len(walls) / sum(walls)
        layers["cluster.load_imbalance"] = best.detail["imbalance"]
        layers["cluster.spawn_overhead_s"] = best.wall_s - max(walls)
        layers["cluster.merge_s"] = (tracer.total("cluster.merge")
                                     / len(traced))
        layers["host.rep_spread"] = rep_spread(spawned)
        layers["trace.overhead_ratio"] = (best_of(traced).wall_s
                                          / best_of(plain).wall_s)
        return self._outcome(spawned + plain + traced, layers)
