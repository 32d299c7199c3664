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

A report is a single-shot, host-specific *record*; whether a change made
anything faster is judged by the repeatable ``macrobench/run.py``, never by
comparing two reports (``docs/performance.md``, "Record vs judge").

Cell isolation
--------------
By default every scheduler cell runs in a **fresh subprocess**
(``sys.executable -m repro.bench`` with a JSON cell spec on stdin):

* ``peak_rss_mb`` is honest — ``ru_maxrss`` is a process-wide high-water
  mark, so in the old in-process mode every cell after the first inherited
  the largest prior cell's peak;
* GC state, type caches and allocator arenas start cold per cell, so cells
  cannot bleed performance into each other;
* cells without a data dependency can run concurrently (``--parallel N``).

Cells are deliberately *not* forked from this process the way sharded
replay shards are (:mod:`repro.cluster.sharded`): each cell's peak RSS is
a recorded figure, and a forked cell would start with this process's heap
resident and count it in its own ``ru_maxrss``.

``isolate=False`` keeps the old in-process mode for unit tests and
debugging; its rows carry ``"rss_isolated": false`` to mark the RSS column
as a process-wide (contaminated) fallback.

Usage::

    python -m repro bench --invocations 50000 --out BENCH_sim.json
    python benchmarks/perf_harness.py          # same defaults
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.baselines import (
    DEFAULT_SCHEDULERS,
    KrakenParameters,
    SchedulerBuild,
    build_scheduler,
    parse_scheduler_names,
    policy_info,
    registered_policies,
)
from repro.common.units import peak_rss_mb
from repro.obs import Observability
from repro.platformsim.experiment import run_experiment
from repro.workload.generator import fib_family_specs, tiled_fib_stream
from repro.workload.trace import Trace

if TYPE_CHECKING:  # the sharded runner loads only for cluster cells
    from repro.cluster.sharded import ShardedClusterConfig

#: Report format version; bump on any structural change (CHANGES.md has the
#: history).  Keys a retired feature once wrote are ignored when present.
BENCH_SCHEMA = "faasbatch-bench/v7"

#: Scheduler label of the observability-overhead run (tracing + sampling
#: on).  Distinct from "FaaSBatch" so cell labels stay unique.
OBS_RUN_LABEL = "FaaSBatch+obs"

#: Default arrivals per scenario tile (one simulated minute).  5x the
#: paper's replay-minute volume: a dense burst keeps hundreds of containers
#: concurrently runnable, which is where CPU-engine cost dominates.
TILE_INVOCATIONS = 4000

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
        return asdict(self)


def bench_trace(config: BenchConfig) -> Trace:
    """Tile bursty replay minutes up to ``config.invocations`` arrivals.

    Each tile draws a fresh bursty minute of ``config.tile_invocations``
    arrivals (deterministic per seed + tile index) offset by its minute
    boundary, so total volume scales without inflating peak concurrency
    beyond one minute's burst levels.  This is
    :func:`~repro.workload.generator.tiled_fib_stream`, materialized.
    """
    return tiled_fib_stream(config.invocations, config.functions,
                            config.seed,
                            config.tile_invocations).materialize()


def _measure(scheduler_factory: Callable[[], object], trace: Trace, specs,
             obs: Optional["Observability"] = None,
             label: Optional[str] = None):
    """Run one scheduler cell; return (result, row).

    ``obs`` turns the run into an observability-overhead measurement;
    ``label`` overrides the row's scheduler name (the obs run reports as
    :data:`OBS_RUN_LABEL` so cell keys stay unique).
    """
    gc.collect()
    started = time.perf_counter()
    result = run_experiment(scheduler_factory(), trace, specs,  # type: ignore[arg-type]
                            workload_label="bench", strict_memory=False,
                            obs=obs)
    wall_clock_s = time.perf_counter() - started
    invocations = len(result.columns)
    return result, {
        "scheduler": label if label is not None else result.scheduler_name,
        "invocations": invocations,
        "wall_clock_s": round(wall_clock_s, 3),
        "sim_completion_ms": result.completion_ms,
        "kernel_events": result.kernel_events,
        "events_per_sec": round(result.kernel_events / wall_clock_s, 1),
        "invocations_per_sec": round(invocations / wall_clock_s, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


# -- subprocess-per-cell plumbing -------------------------------------------------


def _scheduler_factory(name: str, config: BenchConfig,
                       kraken_params: Optional[Dict[str, Dict[str, float]]]
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
                           kraken_parameters=params)
    return lambda: build_scheduler(info.name, build)


def _cell_spec(config: BenchConfig, scheduler: str,
               obs: bool = False, label: Optional[str] = None,
               kraken_params: Optional[Dict] = None,
               want_kraken_params: bool = False) -> Dict[str, object]:
    return {"config": config.to_dict(), "scheduler": scheduler,
            "obs": obs, "label": label,
            "kraken_params": kraken_params,
            "want_kraken_params": want_kraken_params}


def _run_cell_inline(spec: Dict[str, object]) -> Dict[str, object]:
    """Execute one cell spec in this process; returns the child payload."""
    config = BenchConfig(**spec["config"])  # type: ignore[arg-type]
    trace = bench_trace(config)
    specs = fib_family_specs(config.functions)
    factory = _scheduler_factory(
        str(spec["scheduler"]), config,
        spec.get("kraken_params"))  # type: ignore[arg-type]
    obs = (Observability(tracing=True, sampling=True)
           if spec.get("obs") else None)
    result, row = _measure(factory, trace, specs, obs=obs,
                           label=spec.get("label"))  # type: ignore[arg-type]
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
    results: List[Dict[str, object]] = []
    if not isolate:
        for spec in cell_specs:
            emit(f"{spec['label'] or spec['scheduler']} (inline) ...")
            results.append(_run_cell_inline(spec))
        return results
    width = max(1, int(parallel))
    for start in range(0, len(cell_specs), width):
        batch = cell_specs[start:start + width]
        procs = []
        for spec in batch:
            emit(f"{spec['label'] or spec['scheduler']} ...")
            procs.append(_spawn_cell(spec))
        results.extend(_collect_cell(proc, spec)
                       for proc, spec in zip(procs, batch))
    return results


# -- the full report --------------------------------------------------------------


def _select_bench_policies(schedulers: Optional[str]) -> List:
    """Resolve a ``--schedulers`` selection into registry-ordered infos.

    Accepts ``None`` (the default four-scheduler matrix) or a comma string
    of names/labels; rows always come out in registration (canonical
    report) order regardless of selection order.
    """
    selected = (DEFAULT_SCHEDULERS if schedulers is None
                else parse_scheduler_names(schedulers))
    chosen = {policy_info(name).name for name in selected}
    return [info for info in registered_policies() if info.name in chosen]


def run_bench(config: BenchConfig,
              log: Optional[Callable[[str], None]] = None,
              isolate: bool = True, parallel: int = 1,
              schedulers: Optional[str] = None) -> Dict[str, object]:
    """Produce one complete bench report (the BENCH_sim.json payload).

    ``isolate`` runs each cell in a fresh subprocess (the default; see the
    module docstring); ``parallel`` bounds how many isolated cells run at
    once.  ``schedulers`` selects a subset of the registry (``None`` keeps
    the classic four-scheduler matrix); selecting Kraken requires Vanilla
    in the same selection, since Kraken's parameters are learned from the
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

    # Phase 1: every cell without a data dependency.  The Vanilla cell
    # additionally derives Kraken's learned parameters — the paper's
    # porting procedure ("98-percentile latency of each function obtained
    # by the Vanilla strategy as the function SLO").
    phase1: List[Dict[str, object]] = []
    for info in infos:
        if info.needs_vanilla_profile:
            continue  # phase 2: waits on the Vanilla derivation
        phase1.append(_cell_spec(
            config, info.label, want_kraken_params=(
                info.label == "Vanilla" and bool(profiled_labels))))
    if measure_obs:
        phase1.append(_cell_spec(config, "FaaSBatch", obs=True,
                                 label=OBS_RUN_LABEL))
    outputs = _run_cells(phase1, isolate, parallel, emit)
    by_label: Dict[str, Dict[str, object]] = {}
    kraken_params = None
    for cell, out in zip(phase1, outputs):
        by_label[str(cell["label"] or cell["scheduler"])] = out["row"]
        if cell.get("want_kraken_params"):
            kraken_params = out.get("kraken_params")

    # Phase 2: the Kraken cell, parameterised by phase 1's derivation.
    if profiled_labels:
        phase2 = [_cell_spec(config, "Kraken", kraken_params=kraken_params)]
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
    }


# -- sharded cluster cells --------------------------------------------------------


def cluster_cell_configs() -> Dict[str, ShardedClusterConfig]:
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
                     isolate: bool = True) -> Dict[str, object]:
    """Run one named sharded scenario; returns its ``cluster_cells`` row."""
    from repro.cluster.sharded import run_sharded_cluster

    configs = cluster_cell_configs()
    if cell not in configs:
        raise ValueError(f"unknown cluster cell {cell!r}; choose from "
                         f"{sorted(configs)}")
    config = configs[cell]
    result = run_sharded_cluster(config, isolate=isolate, log=log)
    sink = result.sink
    per_shard = [{"shard": s.shard_index,
                  "workers": s.worker_indices,
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
    """Wrap live-gateway load cells as a standalone report.

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


# -- one table-driven validator ----------------------------------------------------

#: Scalar field kinds: what the error message asks for -> the test.
_SCALARS: Dict[str, Callable[[object], bool]] = {
    "a number": lambda v: isinstance(v, (int, float)),
    "a non-negative number": lambda v: isinstance(v, (int, float)) and v >= 0,
    "a number in [0, 1]": lambda v: (isinstance(v, (int, float))
                                     and 0 <= v <= 1),
    "a non-empty object": lambda v: isinstance(v, dict) and bool(v),
    "a list of non-negative integers": lambda v: isinstance(v, list) and all(
        type(i) is int and i >= 0 for i in v),
}
_NUMBER, _NON_NEGATIVE, _UNIT, _NON_EMPTY_OBJECT, _INDICES = _SCALARS


def _non_negative(*keys: str) -> Dict[str, object]:
    return dict.fromkeys(keys, _NON_NEGATIVE)


_ISOLATION = ("subprocess", "inline")
_LATENCY = dict.fromkeys(("mean", "p50", "p95", "p99"), _NUMBER)
#: The evaluation ``repro slo --annotate`` attaches to a cell.
_SLO = {"ok": bool, "checks": [{"check": str, "ok": bool}]}

#: What a well-formed report looks like.  A field's kind is a scalar kind
#: above, a Python type (``isinstance``), a tuple (one of these values), a
#: dict (an object with at least these fields) or a one-element list (a
#: non-empty list of that kind).  Unknown keys are ignored.
_REPORT: Dict[str, object] = {
    "config": {"invocations": _NUMBER, "functions": _NUMBER,
               "seed": _NUMBER},
    "schedulers": [str],
    "runs": [{
        "scheduler": str,
        **_non_negative("invocations", "wall_clock_s", "sim_completion_ms",
                        "kernel_events", "events_per_sec",
                        "invocations_per_sec", "peak_rss_mb"),
        "rss_isolated": bool,
        "slo": _SLO,
    }],
    "cluster_cells": [{
        "cell": str,
        "config": dict,
        "isolation": _ISOLATION,
        **_non_negative("invocations", "completed", "failed", "wall_clock_s",
                        "invocations_per_sec", "sim_completion_ms",
                        "kernel_events", "max_shard_rss_mb",
                        "load_imbalance"),
        "per_shard": [{**dict.fromkeys(("shard", "submitted", "wall_clock_s",
                                        "peak_rss_mb"), _NUMBER),
                       "workers": _INDICES}],
        "latency_ms": _LATENCY,
        # Null when merged from shard payloads that carried no telemetry.
        "obs": dict.fromkeys(("counters", "gauges", "clocks", "histograms"),
                             dict),
        "slo": _SLO,
    }],
    "gateway_cells": [{
        "cell": str,
        "policy": ("faasbatch", "vanilla", "adaptive"),
        "transport": ("inproc", "http"),
        "config": {"rps": _NUMBER, "duration_s": _NUMBER, "seed": _NUMBER,
                   "mix": _NON_EMPTY_OBJECT},
        **_non_negative("offered_rps", "requests", "completed", "shed",
                        "timeouts", "errors", "achieved_rps", "goodput_rps"),
        "goodput_ratio": _UNIT,
        "mode_flips": list,
        "latency_ms": _LATENCY,
        "slo": _SLO,
    }],
}
#: The row sections; a report carries any non-empty combination of them.
_SECTIONS = ("runs", "cluster_cells", "gateway_cells")
#: Fields that may be absent or null wherever the table names them.
_OPTIONAL = _SECTIONS + ("schedulers", "obs", "slo")
#: Top-level fields a report with a ``runs`` section must also carry.
_RUNS_REPORT = {"config": {"window_ms": _NUMBER}, "isolation": _ISOLATION}
_OBS_OVERHEAD = _non_negative("plain_wall_clock_s", "obs_wall_clock_s",
                              "wall_clock_ratio")


def _check(where: str, value: object, kind: object) -> None:
    """Raise ``ValueError`` naming *where* unless *value* is of *kind*.

    *where* is the path of the value inside the report, with rows named by
    their cell (``gateway_cells['vanilla'].latency_ms.p99``), so a message
    names section, cell and field.
    """
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object")
        for key, field_kind in kind.items():
            if value.get(key) is not None or key not in _OPTIONAL:
                _check(f"{where}.{key}" if where else key, value.get(key),
                       field_kind)
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{where} must be a non-empty list")
        for label, entry in enumerate(value):
            if isinstance(entry, dict):
                label = entry.get("cell", entry.get("scheduler", label))
            _check(f"{where}[{label!r}]", entry, kind[0])
    else:
        if isinstance(kind, type):
            ok, kind = isinstance(value, kind), f"a {kind.__name__}"
        elif isinstance(kind, tuple):
            ok, kind = value in kind, f"one of {kind}"
        else:
            ok = _SCALARS[kind](value)  # type: ignore[index]
        if not ok:
            raise ValueError(f"{where} must be {kind}")


def validate_report(report: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless *report* is a well-formed bench report.

    Every reader and writer goes through this (:func:`load_report`,
    :func:`write_report`).  A report carries ``runs`` (one row per scheduler
    cell), ``cluster_cells`` (sharded replays), ``gateway_cells``
    (live-serving load cells), or any combination.  Shapes are the
    :data:`_REPORT` table; the code below adds the rules that relate two
    fields to each other.
    """
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"schema must be {BENCH_SCHEMA!r}, "
                         f"got {report.get('schema')!r}")
    _check("", report, _REPORT)
    if not any(report.get(section) for section in _SECTIONS):
        raise ValueError("report needs a non-empty 'runs', "
                         "'cluster_cells' or 'gateway_cells' section")
    for row in report.get("cluster_cells") or ():  # type: ignore[attr-defined]
        histograms = (row.get("obs") or {}).get("histograms", {})
        for name, hist in histograms.items():
            if not isinstance(hist, dict) \
                    or not isinstance(hist.get("edges"), list) \
                    or not isinstance(hist.get("counts"), list) \
                    or len(hist["counts"]) != len(hist["edges"]) + 1:
                raise ValueError(
                    f"cluster_cells[{row['cell']!r}].obs.histograms"
                    f"[{name!r}] needs edges plus len(edges)+1 counts "
                    "(underflow and unbounded tail)")
    runs = report.get("runs")
    if runs is None:
        return
    _check("", report, _RUNS_REPORT)
    # The obs-overhead contract follows the FaaSBatch cell: measured runs
    # must carry the paired obs cell and ratio block; a selection without
    # FaaSBatch has neither.
    schedulers = {row["scheduler"] for row in runs}  # type: ignore[attr-defined]
    if "FaaSBatch" in schedulers:
        _check("obs_overhead", report.get("obs_overhead"), _OBS_OVERHEAD)
        if OBS_RUN_LABEL not in schedulers:
            raise ValueError(f"runs must include the {OBS_RUN_LABEL!r} "
                             "cell")
    elif report.get("obs_overhead") is not None:
        raise ValueError("obs_overhead must be null when FaaSBatch was "
                         "not measured")


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
    "BENCH_SCHEMA",
    "OBS_RUN_LABEL",
    "BenchConfig",
    "bench_trace",
    "cluster_cell_configs",
    "cluster_report",
    "gateway_report",
    "load_report",
    "run_bench",
    "run_cluster_cell",
    "validate_report",
    "write_report",
]


if __name__ == "__main__":
    sys.exit(_cell_main())
