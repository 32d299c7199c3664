"""Cluster experiments: several workers, one arrival stream, one balancer.

Each worker is a full single-machine platform (its own CPU, memory, pool
and scheduler instance); the cluster gateway replays the trace and routes
every request through the balancer.  The headline question this answers:
how much of FaaSBatch's benefit survives routing that scatters a
function's burst across workers? (See ``benchmarks/test_cluster_routing.py``.)

Scale notes.  The runner accepts a :data:`~repro.workload.trace.TraceLike`
(materialized or streaming), publishes every completion into a
:class:`~repro.common.streaming.StreamingResultSink` and, with
``retain_invocations=False``, drops the per-invocation records — the
regime the million-invocation sharded replay (``repro.cluster.sharded``)
runs in.  Every worker has the calibration's machine shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines.base import Scheduler
from repro.common.errors import ConfigurationError
from repro.common.stats import SampleStats
from repro.common.streaming import StreamingResultSink
from repro.common.units import HOUR
from repro.cluster.balancer import make_balancer
from repro.model.calibration import Calibration, DEFAULT_CALIBRATION
from repro.model.function import FunctionSpec, Invocation
from repro.obs import Observability
from repro.platformsim.platform import ServerlessPlatform
from repro.sim.kernel import Environment
from repro.sim.machine import Machine, build_cpu
from repro.workload.trace import TraceLike

#: Builds a fresh scheduler per worker (schedulers hold per-platform state).
SchedulerFactory = Callable[[], Scheduler]


def _build_worker(env: Environment, scheduler: Scheduler,
                  functions: Sequence[FunctionSpec],
                  calibration: Calibration, sink: StreamingResultSink,
                  retain: bool,
                  obs: Optional[Observability] = None) -> ServerlessPlatform:
    """One started worker platform of the calibration's machine shape.

    ``retain=False`` keeps no completed invocation records: the regime of
    runs too long to hold them.
    """
    cores = calibration.worker_cores
    machine = Machine(env, cores=cores, memory_gb=calibration.worker_memory_gb,
                      cpu=build_cpu(env, scheduler.cpu_discipline, cores))
    platform = ServerlessPlatform(env, machine, calibration, obs=obs,
                                  retain_completed=retain)
    for spec in functions:
        platform.register_function(spec)
    platform.result_sink = sink
    scheduler.start(platform)
    return platform


@dataclass
class ClusterResult:
    """Aggregate and per-worker outcome of one cluster run."""

    balancer_name: str
    workers: int
    invocations: List[Invocation]
    per_worker_invocations: List[int]
    per_worker_containers: List[int]
    per_worker_memory_mb: List[float]
    completion_ms: float
    #: Online accounting (always populated by :func:`run_cluster_experiment`;
    #: the only latency record when ``retain_invocations=False``).
    sink: Optional[StreamingResultSink] = None

    @property
    def total_containers(self) -> int:
        return sum(self.per_worker_containers)

    @property
    def total_memory_mb(self) -> float:
        return sum(self.per_worker_memory_mb)

    def latency_stats(self) -> SampleStats:
        """End-to-end latency sample (exact while the sink's reservoir is).

        Prefers the online sink — identical to the materialized sample
        whenever the run fits the reservoir, and the only source once
        per-invocation records are dropped at scale.
        """
        if self.sink is not None:
            return self.sink.latency_stats()
        return SampleStats(inv.end_to_end_ms for inv in self.invocations)

    def load_imbalance(self) -> float:
        """max/mean of per-worker invocation counts (1.0 = perfect).

        An all-idle cluster (no invocations routed — e.g. a shard that
        owns no hot workers, or a scale-test warm-up window) is *balanced*,
        not an error: returns 0.0 rather than raising.
        """
        counts = self.per_worker_invocations
        if not counts:
            return 0.0
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        return max(counts) / mean

    def summary_row(self) -> List[object]:
        stats = self.latency_stats()
        return [self.balancer_name, self.workers,
                self.total_containers,
                round(self.total_memory_mb, 1),
                round(stats.median, 1),
                round(stats.percentile(98.0), 1),
                round(self.load_imbalance(), 2)]

    SUMMARY_HEADERS = ["balancer", "workers", "containers", "peak_mem_MB",
                       "p50_ms", "p98_ms", "imbalance"]


def run_cluster_experiment(scheduler_factory: SchedulerFactory,
                           trace: TraceLike,
                           functions: Sequence[FunctionSpec],
                           workers: int = 4,
                           balancer: str = "function-affinity",
                           calibration: Calibration = DEFAULT_CALIBRATION,
                           timeout_ms: Optional[float] = None,
                           retain_invocations: bool = True,
                           sink: Optional[StreamingResultSink] = None,
                           ) -> ClusterResult:
    """Run *trace* over a cluster of *workers* machines.

    With ``retain_invocations=False`` no per-invocation record survives the
    run: all accounting flows through *sink* (one is created when not
    supplied) and ``result.invocations`` is empty.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if timeout_ms is None:
        timeout_ms = trace.end_ms + 2.0 * HOUR
    if sink is None:
        sink = StreamingResultSink()
    env = Environment()
    completed: List[Invocation] = []
    done_total = [0]
    all_done = env.event()
    expected = len(trace)

    def on_complete(invocation: Invocation) -> None:
        done_total[0] += 1
        if retain_invocations:
            completed.append(invocation)
        if done_total[0] == expected:
            all_done.succeed(done_total[0])

    platforms = [_build_worker(env, scheduler_factory(), functions,
                               calibration, sink, retain_invocations)
                 for _ in range(workers)]
    for platform in platforms:
        platform.completion_listeners.append(on_complete)
    router = make_balancer(balancer, platforms)

    def replay():
        for record in trace:
            delay = record.arrival_ms - env.now
            if delay > 0:
                yield env.timeout(delay)
            router.pick(record.function_id).submit(record)

    env.process(replay(), name="cluster-gateway")

    def waiter():
        yield all_done

    env.run_process(env.process(waiter(), name="cluster-waiter"),
                    until=timeout_ms)

    return ClusterResult(
        balancer_name=router.name,
        workers=len(platforms),
        invocations=completed,
        per_worker_invocations=[p.completed_count for p in platforms],
        per_worker_containers=[p.provisioned_containers()
                               for p in platforms],
        per_worker_memory_mb=[p.machine.memory.peak_mb for p in platforms],
        completion_ms=env.now,
        sink=sink)


def compare_balancers(scheduler_factory: SchedulerFactory,
                      trace: TraceLike,
                      functions: Sequence[FunctionSpec],
                      workers: int = 4,
                      balancers: Sequence[str] = ("round-robin",
                                                  "least-loaded",
                                                  "function-affinity"),
                      calibration: Calibration = DEFAULT_CALIBRATION,
                      ) -> Dict[str, ClusterResult]:
    """Run the same workload under several routing policies."""
    return {name: run_cluster_experiment(
                scheduler_factory, trace, functions, workers=workers,
                balancer=name, calibration=calibration)
            for name in balancers}
