"""Sharded cluster simulation: one child process per group of workers.

A single simulator process replaying millions of invocations across many
workers is bounded by one interpreter's heap and one core.  This runner
splits a cluster run into ``shards`` child processes, each simulating a
subset of the global worker set against the same streamed trace, and
merges the results.  Workers are packed onto shards by load
(:meth:`ShardedClusterConfig.worker_indices`: longest-processing-time
first over the closed-form per-worker invocation counts), so the slowest
shard — which sets the wall clock — carries as little as the hash allows.

Why this is exact, not approximate: the sharded mode requires the
``hash-partition`` balancer, whose routing is a pure function of
``(function_id, global worker count)`` — never of load.  Workers on a
shared simulation environment are causally independent (each owns its
machine, CPU, pool and scheduler), so simulating a subset of them with
the other workers absent yields byte-identical per-worker results,
whichever subset a shard owns.  Each shard streams only the records
routed to workers it owns (the others are never built), publishes
completions into a :class:`~repro.common.streaming.StreamingResultSink`,
and ships the serialised sink — mergeable in any order, its reservoirs as
packed float arrays — plus per-worker summaries over a pipe as JSON.  No
per-invocation record ever crosses a process boundary or outlives its
completion callback.

Children are ``os.fork()``-ed from the coordinator, which has already
imported everything a shard runs, so no shard boots an interpreter or
re-imports the package; the config and shard index reach the child in
its copy of the parent's memory.  (POSIX only, as ``resource`` already
is.)  Each child writes JSONL to its stdout pipe —
``{"type": "progress", ...}`` heartbeats while replaying, then a single
``{"type": "result", ...}`` payload — and any traceback to its stderr
pipe.  The coordinator drains every child's stdout and stderr while it
runs, and on the first failure kills and reaps every other child.
Per-shard ``peak_rss_mb`` therefore includes the coordinator pages
resident at the fork.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Dict, List, Optional, Sequence

from repro.baselines import (
    SchedulerBuild,
    build_scheduler,
    registered_policies,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.streaming import (
    DEFAULT_RESERVOIR_CAPACITY,
    StreamingResultSink,
    TelemetrySnapshot,
)
from repro.common.units import HOUR, peak_rss_mb
from repro.cluster.balancer import stable_hash
from repro.cluster.experiment import ClusterResult, _build_worker
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.obs import Observability
from repro.platformsim.gateway import ReplayInjector
from repro.sim.kernel import Environment
from repro.workload.generator import (
    fib_family_specs,
    tiled_fib_function_counts,
    tiled_fib_stream,
)
from repro.workload.trace import TraceStream

# An Observability loads its tracer and sampler when it is built, and each
# shard builds one after the fork: import them here, before any fork.
import repro.obs.timeseries  # noqa: F401
import repro.obs.trace  # noqa: F401

#: Completions between progress heartbeats on the child's stdout.
PROGRESS_EVERY = 10_000

#: How much of a failed shard's stderr the coordinator's error carries.
_STDERR_TAIL_LINES = 12
_STDERR_TAIL_CHARS = 4000

#: Schedulers a shard can reconstruct from its config alone — every registry
#: policy whose factory is self-contained.  (Kraken is excluded
#: mechanically via ``needs_vanilla_profile``: its parameters are learned
#: from a prior Vanilla run and the shard protocol deliberately has no
#: side channel for them.)
SHARD_SCHEDULERS = tuple(info.label for info in registered_policies()
                         if not info.needs_vanilla_profile)


@dataclass(frozen=True)
class ShardedClusterConfig:
    """One sharded replay scenario (JSON-serialisable both ways)."""

    invocations: int = 20_000
    functions: int = 8
    seed: int = 13
    tile_invocations: int = 4000
    workers: int = 4
    shards: int = 2
    scheduler: str = "FaaSBatch"
    window_ms: float = 200.0
    reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY

    def __post_init__(self) -> None:
        if self.invocations < 1:
            raise ConfigurationError(
                f"invocations must be >= 1, got {self.invocations}")
        if self.functions < 1:
            raise ConfigurationError(
                f"functions must be >= 1, got {self.functions}")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if not 1 <= self.shards <= self.workers:
            raise ConfigurationError(
                f"shards must be in [1, workers={self.workers}], "
                f"got {self.shards}")
        if self.scheduler not in SHARD_SCHEDULERS:
            raise ConfigurationError(
                f"scheduler must be one of {SHARD_SCHEDULERS}, "
                f"got {self.scheduler!r}")

    def to_dict(self) -> Dict[str, object]:
        return {"invocations": self.invocations,
                "functions": self.functions,
                "seed": self.seed,
                "tile_invocations": self.tile_invocations,
                "workers": self.workers,
                "shards": self.shards,
                "scheduler": self.scheduler,
                "window_ms": self.window_ms,
                "reservoir_capacity": self.reservoir_capacity}

    @cached_property
    def routes(self) -> Dict[str, int]:
        """``{function_id: global worker}`` under hash-partition."""
        return {function_id: stable_hash(function_id) % self.workers
                for function_id in tiled_fib_function_counts(
                    self.invocations, self.functions)}

    def worker_loads(self) -> List[int]:
        """Invocations each global worker receives under hash-partition.

        Computed from the closed-form per-function counts, never by
        walking the trace.
        """
        loads = [0] * self.workers
        for function_id, count in tiled_fib_function_counts(
                self.invocations, self.functions).items():
            loads[self.routes[function_id]] += count
        return loads

    def worker_indices(self, shard_index: int) -> List[int]:
        """Global worker indices shard *shard_index* owns, ascending.

        Longest-processing-time packing: workers in descending load (ties
        to the lower index) each go to the least-loaded shard (ties to the
        shard with fewer workers, so none is left empty, then to the lower
        shard).  The heaviest shard is within Graham's 4/3 of the best
        possible split.
        """
        if not 0 <= shard_index < self.shards:
            raise ConfigurationError(
                f"shard_index must be in [0, {self.shards}), "
                f"got {shard_index}")
        loads = self.worker_loads()
        totals = [0] * self.shards
        members: List[List[int]] = [[] for _ in range(self.shards)]
        for worker in sorted(range(self.workers),
                             key=lambda w: (-loads[w], w)):
            shard = min(range(self.shards),
                        key=lambda s: (totals[s], len(members[s]), s))
            totals[shard] += loads[worker]
            members[shard].append(worker)
        return sorted(members[shard_index])

    def shard_stream(self, shard_index: int) -> Optional[TraceStream]:
        """The records shard *shard_index*'s workers receive, in trace
        order; ``None`` when they receive none."""
        owned = self.worker_indices(shard_index)
        loads = self.worker_loads()
        if not any(loads[worker] for worker in owned):
            return None
        return tiled_fib_stream(
            invocations=self.invocations, functions=self.functions,
            seed=self.seed, tile_invocations=self.tile_invocations,
            function_ids={function_id for function_id, worker
                          in self.routes.items() if worker in owned})

    def scheduler_factory(self) -> Callable[[], object]:
        build = SchedulerBuild(window_ms=self.window_ms)
        return lambda: build_scheduler(self.scheduler, build)


@dataclass
class ShardResult:
    """One shard's summary: mergeable stats, never invocation records."""

    shard_index: int
    worker_indices: List[int]
    per_worker_invocations: List[int]
    per_worker_containers: List[int]
    per_worker_memory_mb: List[float]
    submitted: int
    completion_ms: float
    wall_clock_s: float
    peak_rss_mb: float
    kernel_events: int
    sink: StreamingResultSink
    #: Bounded telemetry delta (counters, gauges, histogram buckets)
    #: shipped over the same JSONL protocol; ``None`` from pre-telemetry
    #: shard payloads.
    obs: Optional[TelemetrySnapshot] = None

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "shard_index": self.shard_index,
            "worker_indices": self.worker_indices,
            "per_worker_invocations": self.per_worker_invocations,
            "per_worker_containers": self.per_worker_containers,
            "per_worker_memory_mb": self.per_worker_memory_mb,
            "submitted": self.submitted,
            "completion_ms": self.completion_ms,
            "wall_clock_s": self.wall_clock_s,
            "peak_rss_mb": self.peak_rss_mb,
            "kernel_events": self.kernel_events,
            "sink": self.sink.to_dict()}
        if self.obs is not None:
            payload["obs"] = self.obs.to_dict()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ShardResult":
        return cls(
            shard_index=int(payload["shard_index"]),  # type: ignore[arg-type]
            worker_indices=list(payload["worker_indices"]),  # type: ignore
            per_worker_invocations=list(payload["per_worker_invocations"]),  # type: ignore[arg-type]
            per_worker_containers=list(payload["per_worker_containers"]),  # type: ignore[arg-type]
            per_worker_memory_mb=list(payload["per_worker_memory_mb"]),  # type: ignore[arg-type]
            submitted=int(payload["submitted"]),  # type: ignore[arg-type]
            completion_ms=float(payload["completion_ms"]),  # type: ignore[arg-type]
            wall_clock_s=float(payload["wall_clock_s"]),  # type: ignore[arg-type]
            peak_rss_mb=float(payload["peak_rss_mb"]),  # type: ignore[arg-type]
            kernel_events=int(payload["kernel_events"]),  # type: ignore[arg-type]
            sink=StreamingResultSink.from_dict(
                payload["sink"]),  # type: ignore[arg-type]
            obs=(TelemetrySnapshot.from_dict(
                payload["obs"])  # type: ignore[arg-type]
                if payload.get("obs") is not None else None))


@dataclass
class ShardedClusterResult:
    """Merged outcome of every shard of one sharded replay."""

    config: ShardedClusterConfig
    shard_results: List[ShardResult]
    sink: StreamingResultSink
    wall_clock_s: float
    #: Order-independent merge of every shard's telemetry delta; ``None``
    #: when any shard predates the telemetry protocol.
    obs: Optional[TelemetrySnapshot] = None

    @property
    def completed(self) -> int:
        return self.sink.completed

    @property
    def completion_ms(self) -> float:
        return max(s.completion_ms for s in self.shard_results)

    @property
    def max_shard_rss_mb(self) -> float:
        return max(s.peak_rss_mb for s in self.shard_results)

    @property
    def kernel_events(self) -> int:
        return sum(s.kernel_events for s in self.shard_results)

    def per_worker_invocations(self) -> List[int]:
        """Global-worker-order completion counts (merged from all shards)."""
        counts = [0] * self.config.workers
        for shard in self.shard_results:
            for worker, count in zip(shard.worker_indices,
                                     shard.per_worker_invocations):
                counts[worker] = count
        return counts

    def to_cluster_result(self) -> ClusterResult:
        """The merged run as a plain :class:`ClusterResult` (global order)."""
        containers = [0] * self.config.workers
        memory = [0.0] * self.config.workers
        for shard in self.shard_results:
            for worker, value in zip(shard.worker_indices,
                                     shard.per_worker_containers):
                containers[worker] = value
            for worker, value in zip(shard.worker_indices,
                                     shard.per_worker_memory_mb):
                memory[worker] = value
        return ClusterResult(
            balancer_name="hash-partition",
            workers=self.config.workers,
            invocations=[],
            per_worker_invocations=self.per_worker_invocations(),
            per_worker_containers=containers,
            per_worker_memory_mb=memory,
            completion_ms=self.completion_ms,
            sink=self.sink)


def run_shard(config: ShardedClusterConfig, shard_index: int,
              progress: Optional[Callable[[int], None]] = None,
              ) -> ShardResult:
    """Simulate shard *shard_index*'s workers over their slice of the stream.

    Every function is routed with the global hash partition; records owned
    by other shards are skipped without being realised.  Runs in the
    calling process — the forked child and the in-process test path both
    land here.
    """
    started = time.perf_counter()
    owned = config.worker_indices(shard_index)
    routes = config.routes
    stream = config.shard_stream(shard_index)
    specs = fib_family_specs(config.functions)
    factory = config.scheduler_factory()
    sink = StreamingResultSink(reservoir_capacity=config.reservoir_capacity,
                               seed=config.seed + shard_index)
    env = Environment()
    # One shared Observability per shard: every worker platform on this
    # shard publishes into the same registry (as a single-process run
    # would), so shard-final counter/gauge values sum exactly across
    # shards and the coordinator can reconstruct the one-process picture.
    obs = Observability()
    platforms = {global_index: _build_worker(env, factory(), specs,
                                             DEFAULT_CALIBRATION, sink,
                                             retain=False, obs=obs)
                 for global_index in owned}

    submitted = [0]
    done_submitting = [False]
    completed = [0]
    all_done = env.event()

    def maybe_finish() -> None:
        if done_submitting[0] and completed[0] == submitted[0] \
                and not all_done.triggered:
            all_done.succeed(completed[0])

    def on_complete(_invocation) -> None:
        completed[0] += 1
        if progress is not None and completed[0] % PROGRESS_EVERY == 0:
            progress(completed[0])
        maybe_finish()

    for platform in platforms.values():
        platform.completion_listeners.append(on_complete)

    def submit_owned(record) -> None:
        submitted[0] += 1
        platforms[routes[record.function_id]].submit(record)

    def finished_submitting() -> None:
        done_submitting[0] = True
        maybe_finish()

    ReplayInjector(env, () if stream is None else stream, submit_owned,
                   finished_submitting)

    def waiter():
        yield all_done

    env.run_process(env.process(waiter(),
                                name=f"shard-{shard_index}-waiter"),
                    until=None if stream is None
                    else stream.end_ms + 2.0 * HOUR)
    if completed[0] != submitted[0]:
        raise SimulationError(
            f"shard {shard_index} timed out: {completed[0]} of "
            f"{submitted[0]} submitted invocations completed")

    return ShardResult(
        shard_index=shard_index,
        worker_indices=owned,
        per_worker_invocations=[platforms[w].completed_count for w in owned],
        per_worker_containers=[platforms[w].provisioned_containers()
                               for w in owned],
        per_worker_memory_mb=[platforms[w].machine.memory.peak_mb
                              for w in owned],
        submitted=submitted[0],
        completion_ms=env.now,
        wall_clock_s=round(time.perf_counter() - started, 3),
        peak_rss_mb=round(peak_rss_mb(), 1),
        kernel_events=env.events_processed,
        sink=sink,
        obs=obs.telemetry())


def merge_shard_results(config: ShardedClusterConfig,
                        shard_results: Sequence[ShardResult],
                        wall_clock_s: float) -> ShardedClusterResult:
    """Fold per-shard sinks and summaries into the cluster-wide result."""
    if len(shard_results) != config.shards:
        raise SimulationError(
            f"expected {config.shards} shard results, "
            f"got {len(shard_results)}")
    ordered = sorted(shard_results, key=lambda s: s.shard_index)
    if [s.shard_index for s in ordered] != list(range(config.shards)):
        raise SimulationError(
            f"shard indices {[s.shard_index for s in shard_results]} are "
            f"not a permutation of 0..{config.shards - 1}")
    total = sum(s.submitted for s in ordered)
    if total != config.invocations:
        raise SimulationError(
            f"shards submitted {total} invocations in total, trace has "
            f"{config.invocations} — shard worker sets overlap or leak")
    sink = StreamingResultSink.merged([s.sink for s in ordered])
    obs = (TelemetrySnapshot.merged([s.obs for s in ordered])
           if all(s.obs is not None for s in ordered) else None)
    return ShardedClusterResult(config=config, shard_results=ordered,
                                sink=sink, wall_clock_s=wall_clock_s,
                                obs=obs)


# -- forked-child plumbing --------------------------------------------------------


class _ForkedShard:
    """A Popen-shaped handle on one forked shard: two pipes and its pid."""

    def __init__(self, pid: int, stdout: IO[str], stderr: IO[str]) -> None:
        self.pid = pid
        self.stdout = stdout
        self.stderr = stderr
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self) -> int:
        if self.returncode is None:
            _, status = os.waitpid(self.pid, 0)
            self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


def _spawn_shard(config: ShardedClusterConfig,
                 shard_index: int) -> _ForkedShard:
    """Fork a child that runs shard *shard_index* and speaks the protocol.

    The child already holds every imported module, so it starts in
    microseconds.  It never returns into the caller's stack: whatever
    happens it leaves through ``os._exit`` (0 once the result is written).
    """
    out_read, out_write = os.pipe()
    err_read, err_write = os.pipe()
    # Unflushed parent output would otherwise be written twice.
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            os.close(out_read)
            os.close(err_read)
            os.dup2(err_write, 2)
            with open(out_write, "w", encoding="utf-8") as out:
                def emit(message: Dict[str, object]) -> None:
                    json.dump(message, out)
                    out.write("\n")
                    out.flush()

                def emit_progress(count: int) -> None:
                    emit({"type": "progress", "shard": shard_index,
                          "completed": count,
                          "rss_mb": round(peak_rss_mb(), 1)})

                result = run_shard(config, shard_index,
                                   progress=emit_progress)
                emit({"type": "result", "payload": result.to_payload()})
            code = 0
        except BaseException:
            os.write(2, traceback.format_exc().encode("utf-8", "replace"))
        finally:
            os._exit(code)
    os.close(out_write)
    os.close(err_write)
    return _ForkedShard(pid, open(out_read, encoding="utf-8"),
                        open(err_read, encoding="utf-8", errors="replace"))


class _ShardReader(threading.Thread):
    """Drains one shard's stdout and stderr so it never blocks on a pipe.

    Stdout is parsed as the JSONL protocol; stderr is drained by a second
    thread that keeps only the last lines.  When stdout closes (the child
    exited, or its output stopped parsing) the reader posts its shard
    index to *finished*.
    """

    def __init__(self, proc: _ForkedShard, shard_index: int,
                 on_progress: Callable[[Dict[str, object]], None],
                 finished: "queue.Queue[int]") -> None:
        super().__init__(daemon=True)
        self.proc = proc
        self.shard_index = shard_index
        self.on_progress = on_progress
        self.finished = finished
        self.result_payload: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self._tail: "deque[str]" = deque(maxlen=_STDERR_TAIL_LINES)
        self._stderr = threading.Thread(target=self._drain_stderr,
                                        daemon=True)

    def start(self) -> None:
        self._stderr.start()
        super().start()

    def _drain_stderr(self) -> None:
        if self.proc.stderr is not None:
            self._tail.extend(self.proc.stderr)

    def run(self) -> None:
        try:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                line = line.strip()
                if not line:
                    continue
                message = json.loads(line)
                if message.get("type") == "progress":
                    self.on_progress(message)
                elif message.get("type") == "result":
                    self.result_payload = message["payload"]
        except Exception as exc:  # surfaced by the coordinator
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.finished.put(self.shard_index)

    def stderr_tail(self) -> str:
        """The child's last stderr lines; call once the child has exited."""
        self._stderr.join()
        return "".join(self._tail).strip()[-_STDERR_TAIL_CHARS:]

    def close(self) -> None:
        """Join both drain threads and close the child's pipes."""
        self.join()
        self._stderr.join()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


def run_sharded_cluster(config: ShardedClusterConfig,
                        isolate: bool = True,
                        log: Optional[Callable[[str], None]] = None,
                        ) -> ShardedClusterResult:
    """Run every shard (forked children by default) and merge the results.

    ``isolate=False`` runs the shards sequentially in this process —
    deterministic and convenient for tests, but per-shard RSS is then the
    process-wide high-water mark.  Child shards are collected in the
    order they finish; the first failure (or any exception, ``Ctrl-C``
    included) kills and reaps every child still running before it
    propagates.
    """
    emit = log if log is not None else (lambda _msg: None)
    started = time.perf_counter()
    if not isolate:
        results = [run_shard(config, index)
                   for index in range(config.shards)]
        return merge_shard_results(
            config, results, round(time.perf_counter() - started, 3))

    def on_progress(message: Dict[str, object]) -> None:
        emit(f"shard {message['shard']}: {message['completed']} done, "
             f"rss {message['rss_mb']} MB")

    finished: "queue.Queue[int]" = queue.Queue()
    procs: List[_ForkedShard] = []
    readers: List[_ShardReader] = []
    results: List[ShardResult] = []
    try:
        # Every fork happens before any reader thread exists: forking a
        # process that runs other threads can hand the child held locks.
        for index in range(config.shards):
            procs.append(_spawn_shard(config, index))
        for index, proc in enumerate(procs):
            readers.append(_ShardReader(proc, index, on_progress, finished))
            readers[index].start()
        for _ in procs:
            index = finished.get()
            proc, reader = procs[index], readers[index]
            if reader.error is not None:
                proc.kill()  # its stdout is no longer drained
            code = proc.wait()
            if code != 0 or reader.result_payload is None:
                detail = reader.error or f"exit {code}"
                raise SimulationError(f"shard {index} failed ({detail}):\n"
                                      f"{reader.stderr_tail()}")
            results.append(ShardResult.from_payload(reader.result_payload))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for reader in readers:
            reader.close()
    return merge_shard_results(
        config, results, round(time.perf_counter() - started, 3))


__all__ = [
    "PROGRESS_EVERY",
    "SHARD_SCHEDULERS",
    "ShardResult",
    "ShardedClusterConfig",
    "ShardedClusterResult",
    "merge_shard_results",
    "peak_rss_mb",
    "run_shard",
    "run_sharded_cluster",
]
