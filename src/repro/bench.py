"""Perf-bench harness: the BENCH trajectory's measurement tool.

Runs a large Azure-sampled scenario through every selected scheduler and
reports *simulator* performance: wall-clock seconds, kernel events/sec,
invocations/sec and peak RSS.

The scenario tiles a bursty Azure-shaped replay minute end to end until the
requested invocation count is reached, keeping peak concurrency at one
minute's burst level no matter how large the total grows.  The default tile
is dense (several thousand arrivals per minute): high burst concurrency is
the regime FaaSBatch targets and the regime where per-event CPU-engine cost
dominates the simulator.  ``--tile-invocations`` dials the density up or
down.

Cell isolation (schema v3)
--------------------------
By default every scheduler cell runs in a **fresh subprocess**
(``sys.executable -m repro.bench`` with a JSON cell spec on stdin):

* ``peak_rss_mb`` is honest — ``ru_maxrss`` is a process-wide high-water
  mark, so in the old in-process mode every cell after the first inherited
  the largest prior cell's peak;
* GC state, type caches and allocator arenas start cold per cell, so cells
  cannot bleed performance into each other;
* cells without a data dependency can run concurrently (``--parallel N``).

``isolate=False`` keeps the old in-process mode for unit tests and
debugging; its rows carry ``"rss_isolated": false`` to mark the RSS column
as a process-wide (contaminated) fallback.

Usage::

    python -m repro bench --invocations 50000 --out BENCH_sim.json
    python -m repro bench --profile            # embed cProfile hotspots
    python benchmarks/perf_harness.py          # same defaults
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines import (
    DEFAULT_SCHEDULERS,
    KrakenParameters,
    SchedulerBuild,
    build_scheduler,
    parse_scheduler_names,
    policy_info,
    registered_policies,
)
from repro.obs import Observability
from repro.platformsim.experiment import run_experiment
from repro.workload.azure import REPLAY_DURATION_MS, replay_minute_arrivals
from repro.workload.durations import DurationSampler
from repro.workload.generator import FIB_FUNCTION_ID, fib_family_specs
from repro.workload.trace import Trace, TraceRecord

#: Report format version; bump on any structural change.
#: v2 added the obs-enabled FaaSBatch run and the ``obs_overhead`` block.
#: v3 added subprocess-per-cell isolation (honest per-cell RSS), optional
#: per-cell cProfile hotspots, and the speedup-vs-committed-baseline table.
#: v3.1 added the sharded-cluster ``cluster_cells`` section (a report may
#: carry ``runs``, ``cluster_cells`` or both), atomic report writes and a
#: loader that rejects partial artifacts.
#: v4 added the live-serving ``gateway_cells`` section (seeded open-loop
#: load cells against the asyncio gateway); a report now carries any
#: non-empty combination of ``runs``, ``cluster_cells``, ``gateway_cells``.
#: v5 made the scheduler grid registry-driven (``--schedulers`` selects a
#: subset, recorded in the top-level ``schedulers`` list; obs/speedup
#: blocks become conditional on the selection) and added the
#: ``window_cells`` section (FaaSBatch fixed-vs-adaptive window sizing).
#: v6 added shard-merged cluster telemetry (an ``obs`` block on cluster
#: cells carrying the order-independent merge of every shard's counters,
#: gauges and histogram buckets) and the optional per-cell ``slo`` block
#: (:mod:`repro.obs.slo` evaluation results, attached by ``repro slo``).
#: v7 reports recorded which of two event queues the kernel ran on as
#: ``config.queue``.  The kernel has one queue now: new reports omit the
#: key and the loader ignores it, so committed v7 artifacts still load.
#: v7 reports also carried a second, frozen fair-share engine: an
#: ``engines`` list, an ``engine`` per run and a ``speedup`` table.  There
#: is one engine now; new reports omit all three and the loader ignores
#: them, the same way.
BENCH_SCHEMA = "faasbatch-bench/v7"

#: Scheduler label of the observability-overhead run (tracing + sampling
#: on).  Distinct from "FaaSBatch" so cell labels stay unique.
OBS_RUN_LABEL = "FaaSBatch+obs"

#: Default arrivals per scenario tile (one simulated minute).  5x the
#: paper's replay-minute volume: a dense burst keeps hundreds of containers
#: concurrently runnable, which is where CPU-engine cost dominates.
TILE_INVOCATIONS = 4000

#: Window-sizing policies a ``window_cells`` comparison measures, in row
#: order: the paper's fixed window first, then the adaptive policy.
WINDOW_CELL_POLICIES = ("fixed", "adaptive")

#: ``ru_maxrss`` unit: bytes on macOS, kilobytes everywhere else.
_RSS_TO_MB = (1024.0 * 1024.0) if sys.platform == "darwin" else 1024.0

#: The committed ``BENCH_sim.json`` (schema v1, PR 3) this optimization
#: pass is measured against: ``(wall_clock_s, kernel_events)`` per cell on
#: the default 50k-invocation scenario.  Frozen here so every future report
#: on that scenario carries its speedup against the same yardstick.
BASELINE_V1: Dict[str, Tuple[float, int]] = {
    "Vanilla": (95.869, 1_286_690),
    "SFS": (37.118, 5_364_365),
    "Kraken": (69.707, 666_550),
    "FaaSBatch": (52.609, 598_004),
}

#: The scenario the committed baseline was measured on; the baseline table
#: is emitted only when the current config matches it exactly.
BASELINE_CONFIG = {"invocations": 50_000, "functions": 8, "seed": 13,
                   "window_ms": 200.0, "tile_invocations": TILE_INVOCATIONS}


@dataclass(frozen=True)
class BenchConfig:
    """Scenario knobs for one bench report."""

    invocations: int = 50_000
    functions: int = 8
    seed: int = 13
    window_ms: float = 200.0
    tile_invocations: int = TILE_INVOCATIONS

    def __post_init__(self) -> None:
        if self.invocations < 1:
            raise ValueError(f"invocations must be >= 1, got "
                             f"{self.invocations}")
        if self.functions < 1:
            raise ValueError(f"functions must be >= 1, got {self.functions}")
        if self.tile_invocations < 1:
            raise ValueError(f"tile_invocations must be >= 1, got "
                             f"{self.tile_invocations}")

    def to_dict(self) -> Dict[str, object]:
        return {"invocations": self.invocations,
                "functions": self.functions,
                "seed": self.seed,
                "window_ms": self.window_ms,
                "tile_invocations": self.tile_invocations}


def bench_trace(config: BenchConfig) -> Trace:
    """Tile bursty replay minutes up to ``config.invocations`` arrivals.

    Each tile draws a fresh bursty minute of ``config.tile_invocations``
    arrivals (deterministic per seed + tile index) offset by its minute
    boundary, so total volume scales without inflating peak concurrency
    beyond one minute's burst levels.
    """
    records: List[TraceRecord] = []
    tile = 0
    remaining = config.invocations
    while remaining > 0:
        count = min(config.tile_invocations, remaining)
        arrivals = replay_minute_arrivals(seed=config.seed + tile,
                                          total=count)
        sampler = DurationSampler(seed=config.seed + 7919 * (tile + 1))
        offset = tile * REPLAY_DURATION_MS
        base = len(records)
        for index, arrival in enumerate(arrivals):
            function_id = (f"{FIB_FUNCTION_ID}-"
                           f"{(base + index) % config.functions}")
            records.append(TraceRecord(arrival_ms=offset + arrival,
                                       function_id=function_id,
                                       payload=sampler.sample_fib_n()))
        remaining -= count
        tile += 1
    return Trace(records)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_TO_MB


def _profile_rows(profiler: cProfile.Profile,
                  top: int) -> List[Dict[str, object]]:
    """Top-*top* cumulative hotspots as JSON-friendly rows."""
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, object]] = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        filename, line, name = func
        _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]  # type: ignore[attr-defined]
        location = (name if filename == "~"
                    else f"{os.path.basename(filename)}:{line}({name})")
        rows.append({"function": location,
                     "ncalls": ncalls,
                     "tottime_s": round(tottime, 3),
                     "cumtime_s": round(cumtime, 3)})
    return rows


def _measure(scheduler_factory: Callable[[], object], trace: Trace, specs,
             obs: Optional["Observability"] = None,
             label: Optional[str] = None, profile_top: int = 0):
    """Run one scheduler cell; return (result, row).

    ``obs`` turns the run into an observability-overhead measurement;
    ``label`` overrides the row's scheduler name (the obs run reports as
    :data:`OBS_RUN_LABEL` so cell keys stay unique).  ``profile_top`` > 0
    wraps the run in cProfile and embeds that many cumulative hotspots —
    the profiler inflates wall-clock substantially, so profiled rows are
    flagged and should not be compared against unprofiled ones.
    """
    gc.collect()
    profiler: Optional[cProfile.Profile] = None
    if profile_top > 0:
        profiler = cProfile.Profile()
        profiler.enable()
    started = time.perf_counter()
    result = run_experiment(scheduler_factory(), trace, specs,  # type: ignore[arg-type]
                            workload_label="bench", strict_memory=False,
                            obs=obs)
    wall_clock_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
    invocations = len(result.invocations)
    row: Dict[str, object] = {
        "scheduler": label if label is not None else result.scheduler_name,
        "invocations": invocations,
        "wall_clock_s": round(wall_clock_s, 3),
        "sim_completion_ms": result.completion_ms,
        "kernel_events": result.kernel_events,
        "events_per_sec": round(result.kernel_events / wall_clock_s, 1),
        "invocations_per_sec": round(invocations / wall_clock_s, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    if profiler is not None:
        row["profiled"] = True
        row["profile_top"] = _profile_rows(profiler, profile_top)
    return result, row


# -- subprocess-per-cell plumbing -------------------------------------------------


def _scheduler_factory(name: str, config: BenchConfig,
                       kraken_params: Optional[Dict[str, Dict[str, float]]],
                       window_policy: str = "fixed"
                       ) -> Callable[[], object]:
    """Registry-backed factory for one bench cell's scheduler.

    ``name`` is any registry key or report label; the subprocess protocol
    ships Kraken's learned parameters as plain dicts, rebuilt here into
    :class:`KrakenParameters`.
    """
    info = policy_info(name)
    params: Optional[KrakenParameters] = None
    if kraken_params is not None:
        params = KrakenParameters(
            slo_ms=dict(kraken_params["slo_ms"]),
            mean_execution_ms=dict(kraken_params["mean_execution_ms"]))
    if info.needs_vanilla_profile and params is None:
        raise ValueError("Kraken cell needs kraken_params")
    build = SchedulerBuild(window_ms=config.window_ms,
                           window_policy=window_policy,
                           kraken_parameters=params)
    return lambda: build_scheduler(info.name, build)


def _cell_spec(config: BenchConfig, scheduler: str,
               obs: bool = False, label: Optional[str] = None,
               kraken_params: Optional[Dict] = None, profile: int = 0,
               want_kraken_params: bool = False,
               window_policy: str = "fixed",
               want_latency: bool = False) -> Dict[str, object]:
    return {"config": config.to_dict(), "scheduler": scheduler,
            "obs": obs, "label": label,
            "kraken_params": kraken_params, "profile": profile,
            "want_kraken_params": want_kraken_params,
            "window_policy": window_policy,
            "want_latency": want_latency}


def _run_cell_inline(spec: Dict[str, object]) -> Dict[str, object]:
    """Execute one cell spec in this process; returns the child payload."""
    config = BenchConfig(**spec["config"])  # type: ignore[arg-type]
    trace = bench_trace(config)
    specs = fib_family_specs(config.functions)
    factory = _scheduler_factory(
        str(spec["scheduler"]), config,
        spec.get("kraken_params"),  # type: ignore[arg-type]
        window_policy=str(spec.get("window_policy") or "fixed"))
    obs = (Observability(tracing=True, sampling=True)
           if spec.get("obs") else None)
    result, row = _measure(factory, trace, specs, obs=obs,
                           label=spec.get("label"),  # type: ignore[arg-type]
                           profile_top=int(spec.get("profile") or 0))
    if spec.get("want_latency"):
        stats = result.latency_stats()
        row["latency_ms"] = {
            "count": stats.count,
            "mean": round(stats.mean, 3),
            "p50": round(stats.median, 3),
            "p95": round(stats.percentile(95), 3),
            "p99": round(stats.percentile(99), 3),
        }
        row["containers"] = result.provisioned_containers
        row["goodput"] = round(result.goodput(), 4)
    out: Dict[str, object] = {"row": row}
    if spec.get("want_kraken_params"):
        params = KrakenParameters.from_invocations(
            result.successful_invocations())
        out["kraken_params"] = {"slo_ms": params.slo_ms,
                                "mean_execution_ms": params.mean_execution_ms}
    return out


def _cell_main() -> int:
    """Entry point of a bench-cell subprocess (``-m repro.bench``).

    Reads one JSON cell spec from stdin, runs it, writes the JSON result
    to stdout.  Running in a fresh interpreter makes ``peak_rss_mb`` a
    true per-cell measurement and isolates GC/allocator state.
    """
    out = _run_cell_inline(json.load(sys.stdin))
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _spawn_cell(spec: Dict[str, object]) -> "subprocess.Popen[str]":
    import repro
    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not existing
                         else src_root + os.pathsep + existing)
    proc = subprocess.Popen([sys.executable, "-m", "repro.bench"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    assert proc.stdin is not None
    proc.stdin.write(json.dumps(spec))
    proc.stdin.close()
    return proc


def _collect_cell(proc: "subprocess.Popen[str]",
                  spec: Dict[str, object]) -> Dict[str, object]:
    assert proc.stdout is not None and proc.stderr is not None
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    code = proc.wait()
    if code != 0:
        tail = "\n".join(stderr.strip().splitlines()[-12:])
        raise RuntimeError(
            f"bench cell {spec['label'] or spec['scheduler']} failed "
            f"(exit {code}):\n{tail}")
    return json.loads(stdout)


def _run_cells(cell_specs: List[Dict[str, object]], isolate: bool,
               parallel: int,
               emit: Callable[[str], None]) -> List[Dict[str, object]]:
    """Run cells in order; subprocess batches of *parallel* when isolated.

    Results are returned in spec order regardless of completion order, so
    the report is deterministic under ``--parallel``.
    """
    results: List[Optional[Dict[str, object]]] = [None] * len(cell_specs)
    if not isolate:
        for index, spec in enumerate(cell_specs):
            emit(f"{spec['label'] or spec['scheduler']} (inline) ...")
            results[index] = _run_cell_inline(spec)
        return results  # type: ignore[return-value]
    width = max(1, int(parallel))
    for start in range(0, len(cell_specs), width):
        batch = cell_specs[start:start + width]
        procs = []
        for spec in batch:
            emit(f"{spec['label'] or spec['scheduler']} ...")
            procs.append(_spawn_cell(spec))
        for offset, (proc, spec) in enumerate(zip(procs, batch)):
            results[start + offset] = _collect_cell(proc, spec)
    return results  # type: ignore[return-value]


# -- the full report --------------------------------------------------------------


def _select_bench_policies(schedulers) -> List:
    """Resolve a ``--schedulers`` selection into registry-ordered infos.

    Accepts ``None`` (the default four-scheduler matrix), a comma string,
    or an iterable of names/labels; rows always come out in registration
    (canonical report) order regardless of selection order.
    """
    if schedulers is None:
        selected = DEFAULT_SCHEDULERS
    elif isinstance(schedulers, str):
        selected = parse_scheduler_names(schedulers)
    else:
        selected = parse_scheduler_names(",".join(schedulers))
    chosen = {policy_info(name).name for name in selected}
    return [info for info in registered_policies() if info.name in chosen]


def run_bench(config: BenchConfig,
              log: Optional[Callable[[str], None]] = None,
              isolate: bool = True, parallel: int = 1,
              profile_top: int = 0,
              schedulers=None) -> Dict[str, object]:
    """Produce one complete bench report (the BENCH_sim.json payload).

    ``isolate`` runs each cell in a fresh subprocess (the default; see the
    module docstring); ``parallel`` bounds how many isolated cells run at
    once.  ``profile_top`` > 0 embeds that many cProfile hotspots per cell
    (wall-clocks are then profiler-inflated and flagged ``"profiled"``).
    ``schedulers`` selects a subset of the registry (``None`` keeps the
    classic four-scheduler matrix); selecting Kraken requires Vanilla in
    the same selection, since Kraken's parameters are learned from the
    Vanilla profiling cell.
    """
    emit = log if log is not None else (lambda _msg: None)
    infos = _select_bench_policies(schedulers)
    labels = [info.label for info in infos]
    profiled_labels = [info.label for info in infos
                       if info.needs_vanilla_profile]
    if profiled_labels and "Vanilla" not in labels:
        raise ValueError(
            f"{', '.join(profiled_labels)} learns its parameters from a "
            "Vanilla profiling cell; add vanilla to the selection")
    measure_obs = "FaaSBatch" in labels

    def spec(scheduler: str, **kwargs) -> Dict[str, object]:
        return _cell_spec(config, scheduler, profile=profile_top, **kwargs)

    # Phase 1: every cell without a data dependency.  The Vanilla cell
    # additionally derives Kraken's learned parameters — the paper's
    # porting procedure ("98-percentile latency of each function obtained
    # by the Vanilla strategy as the function SLO").
    phase1: List[Dict[str, object]] = []
    for info in infos:
        if info.needs_vanilla_profile:
            continue  # phase 2: waits on the Vanilla derivation
        kwargs = {}
        if info.label == "Vanilla" and profiled_labels:
            kwargs["want_kraken_params"] = True
        phase1.append(spec(info.label, **kwargs))
    if measure_obs:
        phase1.append(spec("FaaSBatch", obs=True, label=OBS_RUN_LABEL))
    outputs = _run_cells(phase1, isolate, parallel, emit)
    by_label: Dict[str, Dict[str, object]] = {}
    kraken_params = None
    for cell, out in zip(phase1, outputs):
        by_label[str(cell["label"] or cell["scheduler"])] = out["row"]
        if cell.get("want_kraken_params"):
            kraken_params = out.get("kraken_params")

    # Phase 2: the Kraken cell, parameterised by phase 1's derivation.
    if profiled_labels:
        phase2 = [spec("Kraken", kraken_params=kraken_params)]
        (out,) = _run_cells(phase2, isolate, parallel, emit)
        by_label["Kraken"] = out["row"]

    # Canonical row order (stable across isolation/parallel modes).
    runs: List[Dict[str, object]] = []
    for label in labels + ([OBS_RUN_LABEL] if measure_obs else []):
        row = by_label[label]
        row["rss_isolated"] = bool(isolate)
        runs.append(row)

    obs_overhead = None
    if measure_obs:
        plain = by_label["FaaSBatch"]
        obs_row = by_label[OBS_RUN_LABEL]
        obs_overhead = {
            "note": ("wall-clock(FaaSBatch+obs) / wall-clock(FaaSBatch); "
                     "tracing + sampling are pure observers so simulated "
                     "results are identical"),
            "plain_wall_clock_s": plain["wall_clock_s"],
            "obs_wall_clock_s": obs_row["wall_clock_s"],
            "wall_clock_ratio": round(
                float(obs_row["wall_clock_s"])  # type: ignore[arg-type]
                / max(float(plain["wall_clock_s"]), 1e-9), 3),  # type: ignore[arg-type]
        }
    return {
        "schema": BENCH_SCHEMA,
        "config": config.to_dict(),
        "schedulers": labels,
        "isolation": "subprocess" if isolate else "inline",
        "runs": runs,
        "obs_overhead": obs_overhead,
        "baseline": _baseline_table(runs, config),
    }


def _baseline_table(runs: List[Dict[str, object]],
                    config: BenchConfig) -> Optional[Dict[str, object]]:
    """Speedup vs the committed v1 baseline, or None off-scenario.

    Only cells present in the committed baseline participate (the obs cell
    postdates it), and only when the scenario matches the baseline's
    exactly.  Profiled rows are excluded — their wall-clocks measure the
    profiler, not the simulator.
    """
    if config.to_dict() != BASELINE_CONFIG:
        return None
    per_cell: Dict[str, Dict[str, float]] = {}
    ratios: List[float] = []
    for row in runs:
        baseline = BASELINE_V1.get(str(row["scheduler"]))
        if baseline is None or row.get("profiled"):
            continue
        base_wall_s, base_kernel_events = baseline
        wall = float(row["wall_clock_s"])  # type: ignore[arg-type]
        events = int(row["kernel_events"])  # type: ignore[arg-type]
        ratio = (events / wall) / (base_kernel_events / base_wall_s)
        per_cell[str(row["scheduler"])] = {
            "baseline_wall_clock_s": base_wall_s,
            "wall_clock_speedup": round(base_wall_s / wall, 2),
            "baseline_events_per_sec": round(
                base_kernel_events / base_wall_s, 1),
            "events_per_sec_speedup": round(ratio, 2),
        }
        ratios.append(ratio)
    if not per_cell:
        return None
    return {
        "note": ("vs the committed faasbatch-bench/v1 BENCH_sim.json "
                 "(pre-optimization) on the identical scenario; aggregate "
                 "= arithmetic mean of the per-cell events/sec speedups."),
        "per_cell": per_cell,
        "aggregate_events_per_sec": {
            "speedup": round(sum(ratios) / len(ratios), 2),
            "cells": len(ratios),
        },
    }


# -- window-sizing cells (schema v5) -----------------------------------------------


def run_window_cells(config: BenchConfig,
                     log: Optional[Callable[[str], None]] = None,
                     isolate: bool = True,
                     parallel: int = 1) -> List[Dict[str, object]]:
    """FaaSBatch fixed-vs-adaptive window cells at the identical load.

    Runs the same scenario once per policy in
    :data:`WINDOW_CELL_POLICIES` — the paper's fixed 0.2 s window against
    the arrival-rate-driven :class:`~repro.core.windowing.AdaptiveWindow`
    — and records end-to-end latency percentiles, goodput and container
    footprint per cell, so a committed report shows which window sizing
    wins at that load.
    """
    emit = log if log is not None else (lambda _msg: None)
    cell_specs = [
        _cell_spec(config, "FaaSBatch",
                   label=f"FaaSBatch[{policy}-window]",
                   window_policy=policy, want_latency=True)
        for policy in WINDOW_CELL_POLICIES
    ]
    rows: List[Dict[str, object]] = []
    for cell, out in zip(cell_specs,
                         _run_cells(cell_specs, isolate, parallel, emit)):
        row = out["row"]
        row["cell"] = str(cell["window_policy"])
        row["window_policy"] = str(cell["window_policy"])
        row["rss_isolated"] = bool(isolate)
        rows.append(row)
    return rows


def window_report(config: BenchConfig,
                  cell_rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Wrap window-sizing cells as a standalone v5 report."""
    if not cell_rows:
        raise ValueError("need at least one window cell row")
    return {
        "schema": BENCH_SCHEMA,
        "config": config.to_dict(),
        "window_cells": cell_rows,
    }


# -- sharded cluster cells (schema v3.1) -------------------------------------------


def cluster_cell_configs() -> Dict[str, object]:
    """Named sharded-replay scenarios ``repro bench --cell`` can run.

    * ``azure-smoke`` — 20k invocations over 2 shards; finishes in under a
      minute and is cheap enough for CI, where it cross-checks the merged
      stats against a single-shard run of the same scenario.
    * ``azure-full`` — the 1.98M-invocation Azure-shaped replay (495
      synthesised replay minutes, ~8.25 simulated hours) over 4 shards;
      the scale target the streaming/sharding machinery exists for.
    """
    from repro.cluster.sharded import ShardedClusterConfig
    return {
        "azure-smoke": ShardedClusterConfig(
            invocations=20_000, functions=8, seed=13,
            tile_invocations=4000, workers=4, shards=2),
        "azure-full": ShardedClusterConfig(
            invocations=1_980_000, functions=8, seed=13,
            tile_invocations=4000, workers=8, shards=4),
    }


def run_cluster_cell(cell: str,
                     log: Optional[Callable[[str], None]] = None,
                     isolate: bool = True,
                     shards: Optional[int] = None,
                     workers: Optional[int] = None) -> Dict[str, object]:
    """Run one named sharded scenario; returns its ``cluster_cells`` row.

    ``shards``/``workers`` override the named scenario's topology (the
    CLI's ``--shards``/``--workers``) without changing its workload.
    """
    configs = cluster_cell_configs()
    if cell not in configs:
        raise ValueError(f"unknown cluster cell {cell!r}; choose from "
                         f"{sorted(configs)}")
    from dataclasses import replace

    from repro.cluster.sharded import run_sharded_cluster
    config = configs[cell]
    overrides = {}
    if workers is not None:
        overrides["workers"] = workers
    if shards is not None:
        overrides["shards"] = shards
    if overrides:
        config = replace(config, **overrides)
    result = run_sharded_cluster(config, isolate=isolate, log=log)
    sink = result.sink
    per_shard = [{"shard": s.shard_index,
                  "submitted": s.submitted,
                  "wall_clock_s": s.wall_clock_s,
                  "peak_rss_mb": s.peak_rss_mb,
                  "kernel_events": s.kernel_events,
                  "sim_completion_ms": s.completion_ms}
                 for s in result.shard_results]
    return {
        "cell": cell,
        "config": config.to_dict(),
        "isolation": "subprocess" if isolate else "inline",
        "invocations": sink.completed + sink.failed,
        "completed": sink.completed,
        "failed": sink.failed,
        "wall_clock_s": result.wall_clock_s,
        "invocations_per_sec": round(
            (sink.completed + sink.failed) / result.wall_clock_s, 1),
        "sim_completion_ms": result.completion_ms,
        "kernel_events": result.kernel_events,
        "max_shard_rss_mb": result.max_shard_rss_mb,
        "per_shard": per_shard,
        "latency_ms": sink.summary(),
        "load_imbalance": round(
            result.to_cluster_result().load_imbalance(), 3),
        "obs": (result.obs.to_dict() if result.obs is not None else None),
    }


def cluster_report(cell_rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Wrap cluster-cell rows as a standalone report."""
    if not cell_rows:
        raise ValueError("need at least one cluster cell row")
    return {
        "schema": BENCH_SCHEMA,
        "config": dict(cell_rows[0]["config"]),  # type: ignore[arg-type]
        "cluster_cells": cell_rows,
    }


def gateway_report(cell_rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Wrap live-gateway load cells as a standalone v4 report.

    Each row comes from :meth:`repro.gateway.LoadResult.cell`.  The
    top-level ``config`` block is synthesised from the first cell's load
    config so the shared ``validate_report`` config contract
    (invocations / functions / seed) holds for gateway-only artifacts:
    ``invocations`` is the total requests across cells and ``functions``
    the size of the traffic mix.
    """
    if not cell_rows:
        raise ValueError("need at least one gateway cell row")
    first = cell_rows[0]["config"]  # type: ignore[index]
    if not isinstance(first, dict):
        raise ValueError("gateway cell needs a config object")
    total = sum(int(row.get("requests", 0))  # type: ignore[arg-type]
                for row in cell_rows)
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "invocations": total,
            "functions": len(first.get("mix", {})),
            "seed": first.get("seed"),
        },
        "gateway_cells": cell_rows,
    }


def _validate_slo_block(owner: str, block: object) -> None:
    """Shape-check one per-cell ``slo`` block (schema v6, optional)."""
    if block is None:
        return
    if not isinstance(block, dict):
        raise ValueError(f"{owner}: slo must be an object when present")
    if not isinstance(block.get("ok"), bool):
        raise ValueError(f"{owner}: slo.ok must be a bool")
    checks = block.get("checks")
    if not isinstance(checks, list):
        raise ValueError(f"{owner}: slo.checks must be a list")
    for check in checks:
        if not isinstance(check, dict) \
                or not isinstance(check.get("check"), str) \
                or not isinstance(check.get("ok"), bool):
            raise ValueError(f"{owner}: each slo check needs a string "
                             "'check' and a bool 'ok'")


def _validate_cluster_obs(owner: str, obs: object) -> None:
    """Shape-check one cluster cell's merged telemetry (schema v6)."""
    if obs is None:
        return  # merged from pre-telemetry shard payloads
    if not isinstance(obs, dict):
        raise ValueError(f"{owner}: obs must be an object or null")
    for section in ("counters", "gauges", "clocks", "histograms"):
        if not isinstance(obs.get(section), dict):
            raise ValueError(f"{owner}: obs.{section} must be an object")
    for name, hist in obs["histograms"].items():
        if not isinstance(hist, dict) \
                or not isinstance(hist.get("edges"), list) \
                or not isinstance(hist.get("counts"), list) \
                or len(hist["counts"]) != len(hist["edges"]) + 1:
            raise ValueError(
                f"{owner}: obs histogram {name!r} needs edges plus "
                "len(edges)+1 counts (underflow and unbounded tail)")


def _validate_cluster_cells(cells: object) -> None:
    if not isinstance(cells, list) or not cells:
        raise ValueError("cluster_cells must be a non-empty list when "
                         "present")
    numeric = ("invocations", "completed", "failed", "wall_clock_s",
               "invocations_per_sec", "sim_completion_ms", "kernel_events",
               "max_shard_rss_mb", "load_imbalance")
    for row in cells:
        if not isinstance(row, dict):
            raise ValueError("each cluster cell must be an object")
        if not isinstance(row.get("cell"), str):
            raise ValueError("cluster cell needs a string 'cell' name")
        if not isinstance(row.get("config"), dict):
            raise ValueError("cluster cell needs a config object")
        if row.get("isolation") not in ("subprocess", "inline"):
            raise ValueError("cluster cell isolation must be 'subprocess' "
                             "or 'inline'")
        for key in numeric:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"cluster cell {row.get('cell')!r}: {key} must be a "
                    "non-negative number")
        shards = row.get("per_shard")
        if not isinstance(shards, list) or not shards:
            raise ValueError("cluster cell needs a non-empty per_shard "
                             "list")
        for shard in shards:
            if not isinstance(shard, dict):
                raise ValueError("per_shard entries must be objects")
            for key in ("shard", "submitted", "wall_clock_s",
                        "peak_rss_mb"):
                if not isinstance(shard.get(key), (int, float)):
                    raise ValueError(f"per_shard.{key} must be a number")
        latency = row.get("latency_ms")
        if not isinstance(latency, dict):
            raise ValueError("cluster cell needs a latency_ms summary")
        for key in ("p50", "p95", "p99", "mean"):
            if not isinstance(latency.get(key), (int, float)):
                raise ValueError(f"latency_ms.{key} must be a number")
        owner = f"cluster cell {row.get('cell')!r}"
        _validate_cluster_obs(owner, row.get("obs"))
        _validate_slo_block(owner, row.get("slo"))


def _validate_window_cells(cells: object) -> None:
    if not isinstance(cells, list) or not cells:
        raise ValueError("window_cells must be a non-empty list when "
                         "present")
    numeric = ("invocations", "wall_clock_s", "sim_completion_ms",
               "kernel_events", "containers")
    for row in cells:
        if not isinstance(row, dict):
            raise ValueError("each window cell must be an object")
        if row.get("cell") not in WINDOW_CELL_POLICIES:
            raise ValueError("window cell 'cell' must be one of "
                             f"{WINDOW_CELL_POLICIES}")
        if row.get("window_policy") != row.get("cell"):
            raise ValueError("window cell window_policy must match 'cell'")
        if not isinstance(row.get("scheduler"), str):
            raise ValueError("window cell scheduler must be a string")
        for key in numeric:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"window cell {row.get('cell')!r}: {key} must be a "
                    "non-negative number")
        goodput = row.get("goodput")
        if not isinstance(goodput, (int, float)) or not 0 <= goodput <= 1:
            raise ValueError("window cell goodput must be in [0, 1]")
        latency = row.get("latency_ms")
        if not isinstance(latency, dict):
            raise ValueError("window cell needs a latency_ms summary")
        for key in ("p50", "p95", "p99", "mean"):
            if not isinstance(latency.get(key), (int, float)):
                raise ValueError(f"latency_ms.{key} must be a number")
        _validate_slo_block(f"window cell {row.get('cell')!r}",
                            row.get("slo"))


def _validate_gateway_cells(cells: object) -> None:
    if not isinstance(cells, list) or not cells:
        raise ValueError("gateway_cells must be a non-empty list when "
                         "present")
    numeric = ("offered_rps", "requests", "completed", "shed", "timeouts",
               "errors", "achieved_rps", "goodput_rps")
    for row in cells:
        if not isinstance(row, dict):
            raise ValueError("each gateway cell must be an object")
        if not isinstance(row.get("cell"), str):
            raise ValueError("gateway cell needs a string 'cell' name")
        if row.get("policy") not in ("faasbatch", "vanilla", "adaptive"):
            raise ValueError("gateway cell policy must be 'faasbatch', "
                             "'vanilla' or 'adaptive'")
        if row.get("transport") not in ("inproc", "http"):
            raise ValueError("gateway cell transport must be 'inproc' or "
                             "'http'")
        config = row.get("config")
        if not isinstance(config, dict):
            raise ValueError("gateway cell needs a config object")
        for key in ("rps", "duration_s", "seed"):
            if not isinstance(config.get(key), (int, float)):
                raise ValueError(f"gateway cell config.{key} must be a "
                                 "number")
        if not isinstance(config.get("mix"), dict) or not config["mix"]:
            raise ValueError("gateway cell config.mix must be a non-empty "
                             "object")
        for key in numeric:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"gateway cell {row.get('cell')!r}: {key} must be a "
                    "non-negative number")
        ratio = row.get("goodput_ratio")
        if not isinstance(ratio, (int, float)) or not 0 <= ratio <= 1:
            raise ValueError("gateway cell goodput_ratio must be in "
                             "[0, 1]")
        if not isinstance(row.get("mode_flips"), list):
            raise ValueError("gateway cell mode_flips must be a list")
        latency = row.get("latency_ms")
        if not isinstance(latency, dict):
            raise ValueError("gateway cell needs a latency_ms summary")
        for key in ("p50", "p95", "p99", "mean"):
            if not isinstance(latency.get(key), (int, float)):
                raise ValueError(f"latency_ms.{key} must be a number")
        _validate_slo_block(f"gateway cell {row.get('cell')!r}",
                            row.get("slo"))


def validate_report(report: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless *report* is a well-formed bench report.

    Used by the CI smoke job (and the unit tests) to guard the format that
    downstream BENCH tooling will parse.  A report carries a ``runs``
    section (one row per scheduler cell), a ``cluster_cells`` section
    (sharded cluster replays), a ``gateway_cells`` section (live-serving
    load cells), a ``window_cells`` section (fixed-vs-adaptive window
    sizing), or any combination.
    """
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"schema must be {BENCH_SCHEMA!r}, "
                         f"got {report.get('schema')!r}")
    config = report.get("config")
    if not isinstance(config, dict):
        raise ValueError("missing config object")
    for key in ("invocations", "functions", "seed"):
        if not isinstance(config.get(key), (int, float)):
            raise ValueError(f"config.{key} must be a number")
    schedulers = report.get("schedulers")
    if schedulers is not None:
        if not isinstance(schedulers, list) or not schedulers \
                or not all(isinstance(name, str) for name in schedulers):
            raise ValueError("schedulers must be a non-empty list of "
                             "labels when present")
    runs = report.get("runs")
    cluster_cells = report.get("cluster_cells")
    gateway_cells = report.get("gateway_cells")
    window_cells = report.get("window_cells")
    if not (isinstance(runs, list) and runs) \
            and not (isinstance(cluster_cells, list) and cluster_cells) \
            and not (isinstance(gateway_cells, list) and gateway_cells) \
            and not (isinstance(window_cells, list) and window_cells):
        raise ValueError("report needs a non-empty 'runs', "
                         "'cluster_cells', 'gateway_cells' or "
                         "'window_cells' section")
    if cluster_cells is not None:
        _validate_cluster_cells(cluster_cells)
    if gateway_cells is not None:
        _validate_gateway_cells(gateway_cells)
    if window_cells is not None:
        _validate_window_cells(window_cells)
    if runs is None:
        return
    if not isinstance(config.get("window_ms"), (int, float)):
        raise ValueError("config.window_ms must be a number")
    if report.get("isolation") not in ("subprocess", "inline"):
        raise ValueError("isolation must be 'subprocess' or 'inline' "
                         "(schema v3)")
    if not isinstance(runs, list) or not runs:
        raise ValueError("runs must be a non-empty list when present")
    numeric = ("invocations", "wall_clock_s", "sim_completion_ms",
               "kernel_events", "events_per_sec", "invocations_per_sec",
               "peak_rss_mb")
    for row in runs:
        if not isinstance(row, dict):
            raise ValueError("each run must be an object")
        if not isinstance(row.get("scheduler"), str):
            raise ValueError("run.scheduler must be a string")
        for key in numeric:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"run.{key} must be a non-negative number")
        if not isinstance(row.get("rss_isolated"), bool):
            raise ValueError("run.rss_isolated must be a bool (schema v3)")
        if "profile_top" in row and not isinstance(row["profile_top"], list):
            raise ValueError("run.profile_top must be a list when present")
        _validate_slo_block(f"run {row.get('scheduler')!r}",
                            row.get("slo"))
    # The obs-overhead contract follows the FaaSBatch cell: measured runs
    # must carry the paired obs cell and ratio block; a selection without
    # FaaSBatch has neither (schema v5).
    has_faasbatch = any(row.get("scheduler") == "FaaSBatch" for row in runs)
    obs_overhead = report.get("obs_overhead")
    if has_faasbatch:
        if not isinstance(obs_overhead, dict):
            raise ValueError("obs_overhead object required (schema v2)")
        for key in ("plain_wall_clock_s", "obs_wall_clock_s",
                    "wall_clock_ratio"):
            value = obs_overhead.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"obs_overhead.{key} must be a "
                                 "non-negative number")
        if not any(row.get("scheduler") == OBS_RUN_LABEL for row in runs):
            raise ValueError(f"runs must include the {OBS_RUN_LABEL!r} "
                             "cell")
    elif obs_overhead is not None:
        raise ValueError("obs_overhead must be null when FaaSBatch was "
                         "not measured")
    if "baseline" not in report:
        raise ValueError("baseline key required (schema v3; null when the "
                         "scenario differs from the committed baseline's)")
    baseline = report["baseline"]
    if baseline is not None:
        if not isinstance(baseline, dict):
            raise ValueError("baseline must be an object or null")
        aggregate = baseline.get("aggregate_events_per_sec")
        if not isinstance(aggregate, dict):
            raise ValueError("baseline.aggregate_events_per_sec required")
        value = aggregate.get("speedup")
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError("baseline.aggregate_events_per_sec.speedup "
                             "must be a positive number")
        if not isinstance(baseline.get("per_cell"), dict) \
                or not baseline["per_cell"]:
            raise ValueError("baseline.per_cell must be non-empty")


def write_report(report: Dict[str, object], path: str) -> None:
    """Validate and atomically publish *report* at *path*.

    The JSON is written to a sibling temp file and renamed into place, so
    a crash mid-write (a killed cell subprocess, a full disk, Ctrl-C)
    never leaves a truncated artifact under the published name — the old
    report, if any, survives intact.
    """
    validate_report(report)
    temporary = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temporary, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def load_report(path: str) -> Dict[str, object]:
    """Read and validate a bench report, rejecting partial artifacts.

    A truncated or malformed file (the signature of a writer that died
    mid-run before atomic writes, or of a corrupted download) raises
    ``ValueError`` naming the file and the likely cause instead of
    surfacing a bare JSON traceback to downstream tooling.
    """
    with open(path) as handle:
        content = handle.read()
    try:
        report = json.loads(content)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is not valid JSON ({exc.msg} at char {exc.pos}); the "
            "artifact is partial or corrupt — likely a bench run that "
            "died mid-write.  Delete it and re-run the bench.") from None
    if not isinstance(report, dict):
        raise ValueError(f"{path} does not contain a report object")
    try:
        validate_report(report)
    except ValueError as exc:
        raise ValueError(f"{path} failed validation: {exc}") from None
    return report


__all__ = [
    "BASELINE_V1",
    "BENCH_SCHEMA",
    "OBS_RUN_LABEL",
    "WINDOW_CELL_POLICIES",
    "BenchConfig",
    "bench_trace",
    "cluster_cell_configs",
    "cluster_report",
    "gateway_report",
    "load_report",
    "run_bench",
    "run_cluster_cell",
    "run_window_cells",
    "validate_report",
    "window_report",
    "write_report",
]


if __name__ == "__main__":
    sys.exit(_cell_main())
