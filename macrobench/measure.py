"""Metric names and the reducers every workload shares.

Nothing here imports ``repro``: the tables below are the benchmark's
vocabulary (``BENCHMARK.json`` lists the same names, pinned by
``macrobench/tests``), and the functions are the arithmetic between raw
samples and a reported number — best-of-K host timing, nearest-rank
percentiles, due-time latency, goodput against a latency limit.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

DEFAULT_SEED = 13

#: name -> one-line reason (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "sim-vanilla-dense": "Vanilla on the dense replay minute: the fair-share "
                         "CPU engine does the work (obs off)",
    "sim-sfs-dense": "same trace under SFS: same kernel and event queue, "
                     "no fair-share engine - the bypass for fair-share changes",
    "sim-faasbatch-obs": "same trace under FaaSBatch with tracing+sampling on:"
                         " mapper, windows, multiplexer and the obs tier's cost",
    "cluster-replay": "20k invocations streamed through subprocess shards: "
                      "bounded sinks, telemetry merge, shard skew",
    "gw-inproc-mix": "open loop, 1000 rps Poisson io/echo/fib mix into "
                     "Gateway.invoke: admission, 20 ms windows, thread hop",
    "gw-http-echo": "closed loop, 2 keep-alive HTTP clients, echo, zero "
                    "window: HTTP parse and response write are the request",
}

#: (name, unit, better, bound) — the same seven on every workload.  Every
#: metric with host time in it on some workload sits at the contract's
#: ceiling: the 2-core box this was sized on has slow phases that last
#: minutes, during which the spread over ten runs (distance between the
#: quartiles over the median) reached 0.22.  Goodput is simulated on four
#: workloads and all but constant on a fifth; its bound is for the open
#: loop, where a half-second stall of the host makes 5 % of a window late.
#: The README has the tables.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("slo_goodput_ratio", "ratio", "higher", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

#: (name, unit, better) — every workload prints all of them from its
#: ``--trace 1`` run; a layer the workload never enters reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # host CPU seconds charged to a module by the sampler (per repetition
    # on sim/cluster, per traced window on gw)
    ("sim.fair_share.self_s", "s", "lower"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.kernel.self_s", "s", "lower"),
    ("sim.calendar_queue.self_s", "s", "lower"),
    ("sim.sfs_cpu.self_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("platformsim.self_s", "s", "lower"),
    ("baselines.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("obs.self_s", "s", "lower"),
    ("workload.self_s", "s", "lower"),
    ("common.streaming.self_s", "s", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("gateway.batching.self_s", "s", "lower"),
    ("gateway.admission.self_s", "s", "lower"),
    ("gateway.server.self_s", "s", "lower"),
    ("local.self_s", "s", "lower"),
    ("loadgen.self_s", "s", "lower"),
    ("host.eventloop.self_s", "s", "lower"),
    ("host.other.self_s", "s", "lower"),
    ("host.unsampled_cpu_s", "s", "lower"),
    # simulator counters
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.events_per_op", "count", "lower"),
    ("sim.kernel.us_per_event", "us", "lower"),
    ("model.pool.containers_per_kop", "count", "lower"),
    ("model.pool.cold_starts", "count", "lower"),
    ("model.pool.warm_hit_ratio", "ratio", "higher"),
    ("core.mapper.groups", "count", "lower"),
    ("core.mapper.mean_group_size", "count", "higher"),
    ("obs.spans_recorded", "count", "lower"),
    ("obs.samples_taken", "count", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    # input synthesis and the sharded runner
    ("workload.synth_s", "s", "lower"),
    ("workload.records_synthesised", "count", "lower"),
    ("cluster.foreign_records_skipped", "count", "lower"),
    ("cluster.shard_wall_max_s", "s", "lower"),
    ("cluster.shard_wall_sum_s", "s", "lower"),
    ("cluster.shard_skew", "ratio", "lower"),
    ("cluster.load_imbalance", "ratio", "lower"),
    ("cluster.spawn_overhead_s", "s", "lower"),
    ("cluster.merge_s", "s", "lower"),
    # live tier
    ("loadgen.lateness_p50_ms", "ms", "lower"),
    ("loadgen.lateness_p95_ms", "ms", "lower"),
    ("gateway.invoke_p50_ms", "ms", "lower"),
    ("gateway.latency_p99_ms", "ms", "lower"),
    ("gateway.batches_dispatched", "count", "lower"),
    ("gateway.mean_batch_size", "count", "higher"),
    ("gateway.window_wait_p50_ms", "ms", "lower"),
    ("gateway.admission.shed", "count", "lower"),
    ("gateway.server.http_overhead_p50_ms", "ms", "lower"),
    ("local.exec_p50_ms", "ms", "lower"),
    ("local.cold_starts", "count", "lower"),
    ("local.batch_size_mean", "count", "higher"),
    ("local.multiplexer.hit_ratio", "ratio", "higher"),
    # the noise and tracing gauges
    ("host.rep_spread", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: ``ru_maxrss`` unit: bytes on macOS, kilobytes everywhere else.
_RSS_TO_MB = (1024.0 * 1024.0) if sys.platform == "darwin" else 1024.0


def metric(name: str, value: float) -> Dict[str, object]:
    """One entry of the result line's ``metrics`` map."""
    return {"value": float(value), "unit": _UNITS[name]}


# -- host accounting ---------------------------------------------------------


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set seen in this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / _RSS_TO_MB


# -- best-of-K ---------------------------------------------------------------


@dataclass
class Repetition:
    """One timed, identical run of a batch workload."""

    wall_s: float
    cpu_s: float
    #: Simulated results; must be identical across repetitions.
    summary: Dict[str, object]
    #: Whatever the workload wants back from the run (layer counters).
    detail: object = None


def timed(call: Callable[[], object]) -> Tuple[float, float, object]:
    """``(wall_s, cpu_s, value)`` of one call, garbage collected first."""
    gc.collect()
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    value = call()
    wall = time.perf_counter() - wall0
    return wall, cpu_seconds() - cpu0, value


def repeat(run_once: Callable[[int], Repetition], seconds: float,
           min_reps: int) -> List[Repetition]:
    """Identical repetitions until *seconds* have been measured."""
    reps: List[Repetition] = []
    measured = 0.0
    while len(reps) < min_reps or measured < seconds:
        reps.append(run_once(len(reps)))
        measured += reps[-1].wall_s
    return reps


def best_of(reps: Sequence[Repetition]) -> Repetition:
    """The fastest repetition: interference only ever adds time."""
    if not reps:
        raise ValueError("no repetitions")
    return min(reps, key=lambda rep: rep.wall_s)


def rep_spread(reps: Sequence[Repetition]) -> float:
    """(median - best) / best repetition wall: the host-noise gauge."""
    best = best_of(reps).wall_s
    return (statistics.median(rep.wall_s for rep in reps) - best) / best


def summaries_identical(reps: Sequence[Repetition]) -> bool:
    return all(rep.summary == reps[0].summary for rep in reps)


# -- latency samples ---------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, q in (0, 100]."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


@dataclass
class RequestLog:
    """Per-request instants of one live window (loop-clock seconds).

    ``due`` is when the schedule wanted the request sent, ``fired`` when
    the generator sent it, ``done`` when the response was in hand.  A
    closed loop has no schedule, so there ``due == fired``.
    """

    due: List[float] = field(default_factory=list)
    fired: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    body_ok: List[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.due)

    def good(self) -> List[bool]:
        return [status == 200 and ok
                for status, ok in zip(self.status, self.body_ok)]

    def latencies_ms(self) -> List[float]:
        """Sorted response-minus-due of the good requests.

        Timing from *due* rather than *fired* charges a stalled
        generator's delay to the requests that waited behind the stall.
        """
        return sorted((done - due) * 1000.0 for done, due, good
                      in zip(self.done, self.due, self.good()) if good)

    def invoke_ms(self) -> List[float]:
        """Sorted response-minus-fired of the good requests."""
        return sorted((done - fired) * 1000.0 for done, fired, good
                      in zip(self.done, self.fired, self.good()) if good)

    def lateness_ms(self) -> List[float]:
        return sorted((fired - due) * 1000.0
                      for fired, due in zip(self.fired, self.due))

    def failed(self) -> int:
        return sum(1 for good in self.good() if not good)


def goodput_ratio(good_latencies_ms: Sequence[float], limit_ms: float,
                  attempted: int) -> float:
    """Good ops within the limit over ops attempted; a failure misses."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    return sum(1 for ms in good_latencies_ms if ms <= limit_ms) / attempted


# -- spans -------------------------------------------------------------------


def no_span(_name: str, **_attrs: object):
    """Stand-in for ``Tracer.span`` in untraced runs."""
    return contextlib.nullcontext()


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int
    failed: int
    #: name -> value for every end-to-end metric but ``setup_s``, or for
    #: every per-layer metric the workload has a number for.
    metrics: Dict[str, float]
    #: Failed correctness checks, empty when the run is correct.
    problems: List[str]
    #: Latency sample count, printed beside the latency metrics.
    samples: int = 0
    #: Simulated summary, compared with ``expected/`` at the default seed.
    summary: Optional[Dict[str, object]] = None
    #: Gauges printed beside an untraced run's metrics (``host.rep_spread``).
    notes: Dict[str, float] = field(default_factory=dict)
