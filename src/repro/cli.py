"""Command-line interface: run the paper's experiments from a shell.

Subcommands
-----------
``compare``       run the four schedulers on a workload, print summary +
                  latency CDFs and reduction tables.
``chaos``         replay a deterministic fault plan against the four
                  schedulers with retries on; print goodput / retry
                  amplification / tail-latency tables.
``sweep``         sweep FaaSBatch's dispatch interval (the §V-B5 study).
``trace``         generate a workload trace and write it to CSV;
                  ``trace summarize`` reduces an exported span trace
                  (``--trace out.jsonl``) to per-stage latency tables;
                  ``trace export --format chrome`` converts it to a
                  Perfetto/Chrome ``trace.json``;
                  ``trace critical-path`` prints the dominant-stage
                  attribution table.
``report``        run the four schedulers (or load an exported trace) and
                  write one self-contained HTML comparison report with
                  inline SVG charts.
``sample-azure``  write small sample files in the real Azure trace format.
``replay-azure``  replay real (or sample) Azure trace files.
``bench``         measure simulator performance on a large tiled
                  scenario; write BENCH_sim.json.
``serve``         run the live asyncio HTTP gateway (real FaaSBatch
                  dispatch windows, admission control, degradation
                  monitor) over the demo function set.
``loadgen``       drive seeded open-loop load cells at a fresh gateway
                  stack per policy; write the ``gateway_cells`` bench
                  artifact, the record stream, and the HTML report.

Experiment commands accept ``--trace PATH`` to record every invocation's
span timeline (queued / cold-start / dispatched / executing / responding)
plus the 1 Hz telemetry series, and export them as JSON Lines for
``trace summarize`` / ``trace export`` / ``trace critical-path`` /
``report --input`` or external tooling.

Examples::

    python -m repro compare --workload io --total 200 --trace spans.jsonl
    python -m repro chaos --plan plan.json --trace chaos.jsonl
    python -m repro trace summarize spans.jsonl
    python -m repro trace export spans.jsonl --out trace.json
    python -m repro trace critical-path spans.jsonl
    python -m repro report --workload io --total 200 --out report.html
    python -m repro sweep --workload io --windows 10,100,200,500
    python -m repro trace --workload cpu --total 800 --out replay.csv
    python -m repro sample-azure --dir ./azure-sample
    python -m repro replay-azure --dir ./azure-sample --top 3
    python -m repro bench --invocations 50000 --out BENCH_sim.json
    python -m repro serve --policy faasbatch --port 8080
    python -m repro loadgen --rps 2000 --duration 5 --out BENCH_gateway.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# Each command imports the layer it runs, so ``repro --help`` and a
# gateway command never load the simulator (and vice versa).
if TYPE_CHECKING:
    from repro.faults import FaultPlan, ResiliencePolicy
    from repro.obs import InvocationTracer, Observability, TimeSeriesSampler
    from repro.platformsim import ExperimentResult

DEFAULT_TOTALS = {"cpu": 800, "io": 400}


def _workload(name: str, total: Optional[int], seed: int):
    """Return (trace, [spec]) for the named paper workload."""
    from repro.workload import (
        cpu_workload_trace,
        fib_function_spec,
        io_function_spec,
        io_workload_trace,
    )

    size = total if total is not None else DEFAULT_TOTALS[name]
    if name == "cpu":
        return cpu_workload_trace(seed=seed, total=size), \
            [fib_function_spec()]
    return io_workload_trace(seed=seed, total=size), [io_function_spec()]


def _obs(tracing: bool) -> Optional[Observability]:
    # Tracing runs export JSONL containing spans AND the sampled telemetry
    # series, so a --trace file feeds every downstream consumer (summarize,
    # export, critical-path, report) without a second run.
    from repro.obs import Observability

    return Observability(tracing=True, sampling=True) if tracing else None


def _selected_schedulers(args: argparse.Namespace) -> Tuple[str, ...]:
    """Canonical registry keys for the run's ``--schedulers`` selection.

    Raises :class:`ConfigurationError` (one line, listing the registered
    policies) on an unknown name; commands catch it and exit 2.
    """
    from repro.baselines import DEFAULT_SCHEDULERS, parse_scheduler_names

    text = getattr(args, "schedulers", None)
    if text is None:
        return DEFAULT_SCHEDULERS
    return parse_scheduler_names(text)


def _run_schedulers(names: Sequence[str], trace, specs, window_ms: float,
                    label: str, tracing: bool = False,
                    fault_plan: Optional[FaultPlan] = None,
                    resilience: Optional[ResiliencePolicy] = None,
                    window_policy: str = "fixed"
                    ) -> List[ExperimentResult]:
    """Run the selected registry policies, in order, over one workload.

    Kraken's parameters are derived from the Vanilla run of the same
    selection ("we take the 98-percentile latency of each function
    obtained by the Vanilla strategy as the function SLO"); when Kraken is
    selected without Vanilla, a hidden Vanilla profiling run supplies them
    without appearing in the results.
    """
    from repro.baselines import (
        KrakenParameters,
        SchedulerBuild,
        build_scheduler,
        policy_info,
    )
    from repro.platformsim import run_experiment

    def run(scheduler):
        return run_experiment(scheduler, trace, specs, workload_label=label,
                              obs=_obs(tracing), fault_plan=fault_plan,
                              resilience=resilience)

    build = SchedulerBuild(window_ms=window_ms, window_policy=window_policy)
    results: List[ExperimentResult] = []
    profile: Optional[ExperimentResult] = None

    def vanilla_profile() -> ExperimentResult:
        nonlocal profile
        if profile is None:
            profile = next((r for r in results
                            if r.scheduler_name == "Vanilla"), None)
        if profile is None:
            profile = run(build_scheduler("vanilla", build))
        return profile

    for name in names:
        scheduler_build = build
        if policy_info(name).needs_vanilla_profile:
            params = KrakenParameters.from_invocations(
                vanilla_profile().successful_invocations())
            scheduler_build = replace(build, kraken_parameters=params)
        results.append(run(build_scheduler(name, scheduler_build)))
    return results


LabeledRun = Tuple[str, "InvocationTracer", Optional["TimeSeriesSampler"]]


def _export_span_traces(path, labeled: Sequence[LabeledRun]) -> int:
    """Validate and write every run's spans + series to one JSONL file."""
    from repro.analysis.breakdown import check_trace_invariants
    from repro.obs import write_jsonl, write_series_jsonl

    total = 0
    with open(path, "w") as handle:
        for name, tracer, sampler in labeled:
            check_trace_invariants(tracer)
            total += write_jsonl(handle, tracer, extra={"scheduler": name})
            if sampler is not None:
                total += write_series_jsonl(handle, sampler,
                                            extra={"scheduler": name})
    return total


def _labeled_runs(results: Sequence[ExperimentResult]) -> List[LabeledRun]:
    return [(r.scheduler_name, r.trace, r.sampler) for r in results]


def _run_records(labeled: Sequence[LabeledRun]) -> List[Dict[str, object]]:
    """The in-memory record stream a --trace export would have written."""
    from repro.analysis.breakdown import check_trace_invariants
    from repro.obs import series_records, tracer_records

    records: List[Dict[str, object]] = []
    for name, tracer, sampler in labeled:
        check_trace_invariants(tracer)
        records.extend(tracer_records(tracer, extra={"scheduler": name}))
        if sampler is not None:
            records.extend(series_records(sampler,
                                          extra={"scheduler": name}))
    return records


def _read_trace_records(path) -> Optional[List[Dict[str, object]]]:
    """Load a JSONL trace for a subcommand; prints errors, None on failure."""
    from repro.obs import load_jsonl

    try:
        records, skipped = load_jsonl(path)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return None
    if skipped:
        print(f"warning: skipped {skipped} truncated trailing line in "
              f"{path}", file=sys.stderr)
    return records


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import SchedulerComparison, latency_cdf_tables
    from repro.common.errors import ConfigurationError
    from repro.common.tables import render_table
    from repro.platformsim import ExperimentResult

    try:
        names = _selected_schedulers(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    trace, specs = _workload(args.workload, args.total, args.seed)
    print(f"Running {len(names)} schedulers over {len(trace)} "
          f"{args.workload} invocations (window {args.window} ms)...")
    results = _run_schedulers(names, trace, specs, args.window,
                              args.workload,
                              tracing=args.trace is not None,
                              window_policy=args.window_policy)
    if args.trace is not None:
        lines = _export_span_traces(args.trace, _labeled_runs(results))
        print(f"Wrote {lines} span/event/series records to {args.trace}")
    rows = [result.summary_row() for result in results]
    print(render_table(ExperimentResult.SUMMARY_HEADERS, rows,
                       title="Scheduler summary"))
    if args.cdfs:
        for panel, (headers, table_rows) in \
                latency_cdf_tables(results).items():
            print(render_table(headers, table_rows,
                               title=f"{panel} latency CDF"))
    # The reduction table is defined relative to FaaSBatch; it only makes
    # sense when FaaSBatch is in the selection with something to beat.
    if len(results) > 1 and any(r.scheduler_name == "FaaSBatch"
                                for r in results):
        comparison = SchedulerComparison(results)
        print(render_table(comparison.REDUCTION_HEADERS,
                           comparison.reduction_table(),
                           title="Reductions achieved by FaaSBatch"))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.breakdown import attempt_latency_table
    from repro.common.errors import ConfigurationError
    from repro.common.tables import render_table
    from repro.faults import FaultPlan, ResiliencePolicy, reference_plan

    if args.plan is not None:
        try:
            plan = FaultPlan.load(args.plan)
        except (OSError, ValueError) as error:
            print(f"error: cannot load fault plan {args.plan}: {error}",
                  file=sys.stderr)
            return 2
    else:
        plan = reference_plan(seed=args.seed)
    try:
        names = _selected_schedulers(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    policy = ResiliencePolicy(max_attempts=args.max_attempts,
                              backoff_base_ms=args.backoff_ms,
                              seed=args.seed)
    trace, specs = _workload(args.workload, args.total, args.seed)
    print(f"Chaos run: {plan.fault_count()} planned faults (seed "
          f"{plan.seed}) over {len(trace)} {args.workload} invocations, "
          f"retries up to {policy.max_attempts} attempts...")
    results = _run_schedulers(names, trace, specs, args.window,
                              args.workload,
                              tracing=args.trace is not None,
                              fault_plan=plan, resilience=policy)
    if args.trace is not None:
        lines = _export_span_traces(args.trace, _labeled_runs(results))
        print(f"Wrote {lines} span/event/annotation records to {args.trace}")
    headers, rows = attempt_latency_table(results)
    print(render_table(headers, rows,
                       title="Resilience under the fault plan"))
    worst = min(results, key=lambda r: r.goodput())
    if worst.goodput() < 1.0:
        print(f"warning: {worst.scheduler_name} finished at "
              f"{worst.goodput() * 100.0:.1f}% goodput "
              f"({worst.failure_count} invocations exhausted retries)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.common.tables import render_table
    from repro.core import FaaSBatchConfig, FaaSBatchScheduler
    from repro.platformsim import run_experiment

    trace, specs = _workload(args.workload, args.total, args.seed)
    windows = [float(w) for w in args.windows.split(",")]
    rows = []
    traced: List[LabeledRun] = []
    for window_ms in windows:
        scheduler = FaaSBatchScheduler(FaaSBatchConfig(window_ms=window_ms))
        result = run_experiment(scheduler, trace, specs,
                                workload_label=args.workload,
                                window_ms=window_ms,
                                obs=_obs(args.trace is not None))
        if args.trace is not None:
            traced.append((f"FaaSBatch[{window_ms:g}ms]", result.trace,
                           result.sampler))
        stats = result.latency_stats()
        rows.append([window_ms / 1000.0, result.provisioned_containers,
                     round(result.average_memory_mb(), 1),
                     round(stats.median, 1),
                     round(stats.percentile(98.0), 1)])
    if args.trace is not None:
        lines = _export_span_traces(args.trace, traced)
        print(f"Wrote {lines} span/event/series records to {args.trace}")
    print(render_table(
        ["window_s", "containers", "avg_mem_MB", "p50_ms", "p98_ms"], rows,
        title=f"FaaSBatch dispatch-interval sweep ({args.workload})"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.out is None:
        print("error: --out is required when generating a trace",
              file=sys.stderr)
        return 2
    trace, _specs = _workload(args.workload, args.total, args.seed)
    trace.to_csv(args.out)
    print(f"Wrote {len(trace)} records to {args.out}")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.common.stats import SampleStats
    from repro.common.tables import render_table
    from repro.obs import span_records

    records = _read_trace_records(args.input)
    if records is None:
        return 2
    if not records:
        print(f"{args.input} is empty; nothing to summarize")
        return 0
    spans = span_records(records)
    if not spans:
        print(f"error: no span records in {args.input}", file=sys.stderr)
        return 2
    # (scheduler, stage) → duration samples, insertion-ordered.
    groups: Dict[Tuple[str, str], SampleStats] = {}
    invocations: Dict[str, set] = {}
    for span in spans:
        scheduler = str(span.get("scheduler", "-"))
        key = (scheduler, str(span["stage"]))
        groups.setdefault(key, SampleStats()).add(
            float(span["end_ms"]) - float(span["start_ms"]))
        # A retried attempt (``inv-3#a2``) or a hedged shadow (``inv-3~h1``)
        # is another timeline of the same invocation.
        base_id = str(span["invocation_id"]).split("#")[0].split("~")[0]
        invocations.setdefault(scheduler, set()).add(base_id)
    rows = [[scheduler, stage, stats.count,
             round(stats.mean, 2), round(stats.median, 2),
             round(stats.percentile(98.0), 2), round(stats.total, 1)]
            for (scheduler, stage), stats in groups.items()]
    print(render_table(
        ["scheduler", "stage", "count", "mean_ms", "p50_ms", "p98_ms",
         "total_ms"],
        rows, title=f"Span summary ({args.input})"))
    events = len(records) - len(spans)
    per_scheduler = ", ".join(f"{name}: {len(ids)}"
                              for name, ids in invocations.items())
    print(f"{len(spans)} spans over {per_scheduler} invocations; "
          f"{events} other records (container events/annotations/series)")
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        chrome_trace,
        dump_chrome_trace,
        validate_chrome_trace,
    )

    records = _read_trace_records(args.input)
    if records is None:
        return 2
    if not records:
        print(f"error: no records in {args.input}", file=sys.stderr)
        return 2
    payload = chrome_trace(records)
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    events = dump_chrome_trace(args.out, payload)
    print(f"Wrote {events} trace events to {args.out} "
          f"(open in https://ui.perfetto.dev or chrome://tracing)")
    return 0


def cmd_trace_critical_path(args: argparse.Namespace) -> int:
    from repro.common.tables import render_table
    from repro.obs.critical_path import analyze, critical_path_table

    records = _read_trace_records(args.input)
    if records is None:
        return 2
    summaries = analyze(records)
    if not summaries:
        print(f"error: no span records in {args.input}", file=sys.stderr)
        return 2
    headers, rows = critical_path_table(summaries)
    print(render_table(headers, rows,
                       title=f"Critical-path attribution ({args.input})"))
    for scheduler in sorted(summaries):
        summary = summaries[scheduler]
        dominant = max(summary.dominant_counts,
                       key=summary.dominant_counts.get)
        print(f"{scheduler}: {dominant} dominates "
              f"{summary.dominant_fraction(dominant):.1%} of "
              f"{summary.count} invocations "
              f"(p99 {summary.p99_ms:.1f} ms over {summary.tail_count} "
              f"tail invocations)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.obs.export import chrome_trace, dump_chrome_trace
    from repro.obs.report import write_report as write_html_report

    if args.input is not None:
        records = _read_trace_records(args.input)
        if records is None:
            return 2
        if not records:
            print(f"error: no records in {args.input}", file=sys.stderr)
            return 2
        title = f"FaaSBatch scheduler comparison ({args.input})"
    else:
        try:
            names = _selected_schedulers(args)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        trace, specs = _workload(args.workload, args.total, args.seed)
        print(f"Running {len(names)} schedulers over {len(trace)} "
              f"{args.workload} invocations (window {args.window} ms)...")
        results = _run_schedulers(names, trace, specs, args.window,
                                  args.workload, tracing=True)
        records = _run_records(_labeled_runs(results))
        title = (f"FaaSBatch scheduler comparison — {args.workload} "
                 f"workload, {len(trace)} invocations, seed {args.seed}")
    byte_count = write_html_report(args.out, records, title=title)
    print(f"Wrote {byte_count} bytes to {args.out}")
    if args.chrome is not None:
        events = dump_chrome_trace(args.chrome, chrome_trace(records))
        print(f"Wrote {events} trace events to {args.chrome}")
    return 0


def _cmd_bench_cell(args: argparse.Namespace) -> int:
    """``repro bench --cell NAME``: one sharded cluster replay."""
    from repro.bench import cluster_report, run_cluster_cell, write_report
    from repro.common.tables import render_table
    from repro.obs.report import straggler_line
    from repro.obs.report import write_report as write_html_report

    row = run_cluster_cell(args.cell, log=print, isolate=not args.inline)
    write_report(cluster_report([row]), args.out)
    config = row["config"]
    latency = row["latency_ms"]
    headers = ["cell", "inv", "workers", "shards", "wall_s", "inv/s",
               "max_shard_rss_MB", "p50_ms", "p99_ms", "imbalance"]
    table_row = [row["cell"], row["invocations"], config["workers"],
                 config["shards"], row["wall_clock_s"],
                 row["invocations_per_sec"], row["max_shard_rss_mb"],
                 latency["p50"], latency["p99"], row["load_imbalance"]]
    print(render_table(headers, [table_row], title="Sharded cluster replay"))
    for shard in row["per_shard"]:
        print(f"  shard {shard['shard']}: workers {shard['workers']}, "
              f"{shard['submitted']} invocations, "
              f"{shard['wall_clock_s']} s, peak rss "
              f"{shard['peak_rss_mb']} MB")
    print(straggler_line(row["per_shard"], row["wall_clock_s"]))
    exact = "exact" if latency.get("exact") else "histogram-approximated"
    print(f"Merged latency sample: {exact}; report written to {args.out}")
    if row.get("obs") is not None:
        print(f"Merged telemetry: {len(row['obs']['counters'])} counters, "
              f"{len(row['obs']['histograms'])} histograms (order-"
              "independent shard merge)")
    if getattr(args, "report", None):
        record = {"type": "cluster-obs", "cell": row["cell"],
                  "shards": config["shards"], "obs": row.get("obs"),
                  "per_shard": row["per_shard"],
                  "wall_clock_s": row["wall_clock_s"]}
        byte_count = write_html_report(
            args.report, [record],
            title=f"FaaSBatch sharded cluster — {row['cell']} cell")
        print(f"Wrote {byte_count} bytes to {args.report}")
    return 0


def _cmd_bench_windows(args: argparse.Namespace, config) -> int:
    """``repro bench --window-cells``: fixed-vs-adaptive FaaSBatch cells."""
    from repro.bench import run_window_cells, window_report, write_report
    from repro.common.tables import render_table

    rows = run_window_cells(config, log=print, isolate=not args.inline,
                            parallel=args.parallel)
    write_report(window_report(config, rows), args.out)
    headers = ["window_policy", "inv", "goodput", "p50_ms", "p95_ms",
               "p99_ms", "containers", "sim_completion_ms"]
    table = [[r["cell"], r["invocations"], r["goodput"],
              r["latency_ms"]["p50"], r["latency_ms"]["p95"],
              r["latency_ms"]["p99"], r["containers"],
              r["sim_completion_ms"]] for r in rows]
    print(render_table(headers, table,
                       title="FaaSBatch window sizing (fixed vs adaptive)"))
    by_cell = {r["cell"]: r for r in rows}
    if {"fixed", "adaptive"} <= by_cell.keys():
        fixed_p99 = by_cell["fixed"]["latency_ms"]["p99"]
        adaptive_p99 = by_cell["adaptive"]["latency_ms"]["p99"]
        delta = (fixed_p99 - adaptive_p99) / fixed_p99 * 100.0
        print(f"Adaptive p99 vs fixed: {adaptive_p99:g} ms vs "
              f"{fixed_p99:g} ms ({delta:+.1f}% lower)")
    print(f"Wrote {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import BenchConfig, run_bench, write_report
    from repro.common.errors import ConfigurationError
    from repro.common.tables import render_table

    if args.cell:
        return _cmd_bench_cell(args)
    config = BenchConfig(invocations=args.invocations,
                         functions=args.functions,
                         seed=args.seed, window_ms=args.window,
                         tile_invocations=args.tile_invocations)
    if args.window_cells:
        return _cmd_bench_windows(args, config)
    try:
        report = run_bench(config, log=print,
                           isolate=not args.inline, parallel=args.parallel,
                           schedulers=args.schedulers)
    except (ConfigurationError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    write_report(report, args.out)
    headers = ["scheduler", "wall_s", "events/s", "inv/s", "peak_rss_MB"]
    rows = [[r["scheduler"], r["wall_clock_s"], r["events_per_sec"],
             r["invocations_per_sec"], r["peak_rss_mb"]]
            for r in report["runs"]]
    title = "Simulator performance"
    if report["isolation"] == "inline":
        title += " (inline: RSS is process-wide)"
    print(render_table(headers, rows, title=title))
    overhead = report.get("obs_overhead") or {}
    if overhead:
        print(f"Observability overhead: "
              f"{overhead['wall_clock_ratio']:g}x wall clock "
              f"(tracing + sampling on)")
    print(f"Wrote {args.out}")
    return 0


def _parse_mix(text: str) -> Dict[str, float]:
    """``"io=0.6,echo=0.4"`` -> ``{"io": 0.6, "echo": 0.4}``."""
    mix: Dict[str, float] = {}
    for part in text.split(","):
        name, _, weight = part.partition("=")
        if not name.strip() or not weight.strip():
            raise ValueError(f"bad mix entry {part!r} (want name=weight)")
        mix[name.strip()] = float(weight)
    return mix


def _gateway_cell_specs(args: argparse.Namespace) -> list:
    """Translate loadgen CLI flags to one CellSpec per requested policy."""
    from repro.gateway import AdmissionConfig, CellSpec, LoadgenConfig

    mix = _parse_mix(args.mix)
    admission = AdmissionConfig(max_queue_depth=args.max_queue_depth,
                                max_inflight=args.max_inflight,
                                shed_policy=args.shed_policy)
    timeout = args.request_timeout if args.request_timeout > 0 else None
    load = LoadgenConfig(rps=args.rps, duration_seconds=args.duration,
                         seed=args.seed, mix=mix,
                         max_connections=args.connections)
    policies = [policy.strip() for policy in args.policies.split(",")]
    phases = ()
    if "adaptive" in policies:
        # Shape-shifting traffic so the degradation monitor has something
        # to react to: io-heavy (batching wins), echo-only (the window is
        # pure tax), io-heavy again (recovery).  Every cell of the run
        # serves it, so the printed table compares the same traffic.
        third = args.duration / 3.0
        phases = tuple(
            LoadgenConfig(rps=args.rps, duration_seconds=third,
                          seed=args.seed + index, mix=phase_mix,
                          max_connections=args.connections)
            for index, phase_mix in enumerate(
                ({"io": 0.7, "echo": 0.3}, {"echo": 1.0},
                 {"io": 0.7, "echo": 0.3})))
    return [CellSpec(label=policy, policy=policy, load=load, phases=phases,
                     transport=args.transport,
                     window_seconds=args.window_ms / 1000.0,
                     deadline_seconds=args.deadline,
                     admission=admission,
                     request_timeout_seconds=timeout)
            for policy in policies]


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the live gateway until interrupted."""
    import asyncio

    from repro.gateway import (
        AdmissionConfig,
        DegradationConfig,
        DEMO_FUNCTIONS,
        Gateway,
        GatewayConfig,
        GatewayServer,
        demo_platform,
    )
    from repro.local import LocalPlatformConfig
    from repro.obs import Observability, RotatingJsonlWriter, TraceStreamer

    async def serve() -> int:
        obs = Observability(tracing=args.trace is not None)
        platform = demo_platform(
            LocalPlatformConfig.vanilla() if args.policy == "vanilla"
            else LocalPlatformConfig(), obs=obs)
        gateway = Gateway(platform, GatewayConfig(
            policy="vanilla" if args.policy == "vanilla" else "faasbatch",
            window_seconds=(0.0 if args.policy == "vanilla"
                            else args.window_ms / 1000.0),
            seed=args.seed,
            admission=AdmissionConfig(max_queue_depth=args.max_queue_depth,
                                      max_inflight=args.max_inflight,
                                      shed_policy=args.shed_policy),
            degradation=DegradationConfig(
                enabled=args.policy == "adaptive")))
        server = GatewayServer(gateway, host=args.host, port=args.port)
        await server.start()
        streamer = None
        pump = None
        if args.trace is not None:
            streamer = TraceStreamer(
                obs.tracer,
                RotatingJsonlWriter(args.trace),
                extra={"scheduler": args.policy},
                lock=platform.obs_lock)

            async def pump_spans() -> None:
                while True:
                    await asyncio.sleep(1.0)
                    streamer.poll()

            pump = asyncio.get_event_loop().create_task(pump_spans())
            print(f"Streaming spans to {args.trace} (rotated JSONL)")
        print(f"Serving {args.policy} gateway on "
              f"http://{server.host}:{server.port}")
        print(f"Functions: {', '.join(DEMO_FUNCTIONS)} "
              f"(POST /invoke/<name>; GET /healthz /stats /metrics)")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if pump is not None:
                pump.cancel()
            await server.stop()
            await asyncio.get_event_loop().run_in_executor(
                None, platform.shutdown)
            if streamer is not None:
                written = streamer.close()
                print(f"Trace stream closed ({written} final records)")
        return 0

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        print("\nInterrupted; gateway stopped.")
        return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: drive seeded open-loop load cells, write artifacts."""
    import asyncio

    from repro.common.tables import render_table
    from repro.gateway import run_cell
    from repro.obs.report import write_report as write_html_report

    try:
        specs = _gateway_cell_specs(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    trace_writer = None
    if args.trace is not None:
        from repro.obs import RotatingJsonlWriter
        trace_writer = RotatingJsonlWriter(args.trace)

    async def drive() -> list:
        from repro.analysis.breakdown import check_trace_invariants
        from repro.obs import (
            Observability,
            WALL_TIME_TOLERANCE_MS,
            tracer_records,
        )
        results = []
        for spec in specs:
            total = (sum(p.duration_seconds for p in spec.phases)
                     or spec.load.duration_seconds)
            print(f"Cell {spec.label}: {spec.load.rps:g} rps for "
                  f"{total:g}s over {spec.transport} "
                  f"(seed {spec.load.seed})...")
            obs = (Observability(tracing=True)
                   if trace_writer is not None else None)
            results.append(await run_cell(spec, obs=obs))
            if obs is not None:
                # Gateway spans are wall-clock stamped — validate with the
                # wall tolerance, not the simulator's (see Span docs).
                check_trace_invariants(
                    obs.tracer, tolerance_ms=WALL_TIME_TOLERANCE_MS)
                for record in tracer_records(
                        obs.tracer, extra={"scheduler": spec.label}):
                    trace_writer.write(record)
        return results

    results = asyncio.run(drive())
    if trace_writer is not None:
        trace_writer.close()
        print(f"Wrote {trace_writer.lines_written} trace records to "
              f"{args.trace}")
    headers = ["cell", "requests", "goodput_rps", "goodput", "p50_ms",
               "p99_ms", "shed", "flips", "final_mode"]
    rows = []
    for result in results:
        cell = result.cell()
        latency = cell["latency_ms"]
        rows.append([cell["cell"], cell["requests"], cell["goodput_rps"],
                     f"{cell['goodput_ratio']:.1%}",
                     latency.get("p50", "-"), latency.get("p99", "-"),
                     cell["shed"], len(cell["mode_flips"]),
                     cell["final_mode"] or "-"])
    print(render_table(headers, rows, title="Gateway load cells"))
    if args.out is not None:
        from repro.bench import gateway_report, write_report
        write_report(gateway_report([r.cell() for r in results]), args.out)
        print(f"Wrote {args.out}")
    records = [record for result in results
               for record in result.report_records()]
    if args.records is not None:
        import json
        with open(args.records, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"Wrote {len(records)} gateway records to {args.records}")
    if args.report is not None:
        byte_count = write_html_report(
            args.report, records,
            title=(f"FaaSBatch live gateway — {args.rps:g} rps x "
                   f"{args.duration:g}s, seed {args.seed}"))
        print(f"Wrote {byte_count} bytes to {args.report}")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """``repro slo``: evaluate SLO specs; ``--check`` gates on the result."""
    from repro.bench import load_report, write_report
    from repro.common.errors import ConfigurationError
    from repro.common.tables import render_table
    from repro.obs.slo import (
        annotate_report,
        default_specs,
        evaluate_artifact,
        evaluate_records,
        load_specs,
        slo_table,
    )
    from repro.obs.trace import read_jsonl

    if not args.artifacts and not args.records:
        print("error: need at least one artifact or --records file",
              file=sys.stderr)
        return 2
    try:
        specs = (load_specs(args.spec) if args.spec is not None
                 else default_specs())
    except (ConfigurationError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    results = []
    for path in args.artifacts:
        try:
            report = load_report(path)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        results.extend(evaluate_artifact(report, specs,
                                         target_prefix=f"{path}:"))
        if args.annotate:
            write_report(annotate_report(report, specs), path)
            print(f"Annotated {path} with per-cell slo blocks")
    for path in args.records:
        try:
            records = read_jsonl(path)
        except (OSError, ValueError) as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 2
        results.extend(evaluate_records(records, specs,
                                        target_prefix=f"{path}:"))
    headers, rows = slo_table(results)
    print(render_table(headers, rows, title="SLO evaluation"))
    failed = [r for r in results if not r.ok]
    if not results:
        print("No SLO specs matched the given inputs.")
    elif failed:
        print(f"{len(failed)} of {len(results)} SLO evaluations FAILED")
    else:
        print(f"All {len(results)} SLO evaluations passed.")
    if args.check and (failed or not results):
        return 1
    return 0


def cmd_sample_azure(args: argparse.Namespace) -> int:
    from repro.workload.azurefile import write_sample_files

    invocations_path, durations_path = write_sample_files(
        args.dir, functions=args.functions, seed=args.seed)
    print(f"Wrote {invocations_path}")
    print(f"Wrote {durations_path}")
    return 0


def cmd_replay_azure(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.common.tables import render_table
    from repro.platformsim import ExperimentResult
    from repro.workload.azurefile import MINUTES_PER_DAY, AzureTraceBuilder

    directory = Path(args.dir)
    invocations = args.invocations or next(
        iter(sorted(directory.glob("invocations_per_function*.csv"))), None)
    durations = args.durations or next(
        iter(sorted(directory.glob("function_durations*.csv"))), None)
    if invocations is None or durations is None:
        print("error: could not locate trace files; pass --invocations "
              "and --durations", file=sys.stderr)
        return 2
    builder = AzureTraceBuilder.from_files(invocations, durations,
                                           seed=args.seed)
    keys = builder.hottest_functions(args.top)
    start = args.start_minute
    end = MINUTES_PER_DAY if args.end_minute is None else args.end_minute
    trace = builder.build_trace(keys, start_minute=start, end_minute=end)
    specs = builder.build_specs(keys)
    try:
        names = _selected_schedulers(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"Replaying {len(trace)} invocations of {len(keys)} hottest "
          f"functions (minutes {start}-{end})...")
    results = _run_schedulers(names, trace, specs, args.window,
                              "azure-file",
                              tracing=args.trace is not None)
    if args.trace is not None:
        lines = _export_span_traces(args.trace, _labeled_runs(results))
        print(f"Wrote {lines} span/event/series records to {args.trace}")
    rows = [result.summary_row() for result in results]
    print(render_table(ExperimentResult.SUMMARY_HEADERS, rows,
                       title="Scheduler summary (Azure trace replay)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=13)

    def add_tracing(p):
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record span timelines and export them as "
                            "JSON Lines to PATH")

    def add_schedulers(p):
        p.add_argument("--schedulers", default=None, metavar="NAMES",
                       help="comma-separated registry names to run "
                            "(default: the paper's four; see "
                            "docs/schedulers.md)")

    compare = sub.add_parser("compare",
                             help="run the selected schedulers on a "
                                  "workload (default: the paper's four)")
    compare.add_argument("--workload", choices=("cpu", "io"), default="cpu")
    compare.add_argument("--total", type=int, default=None,
                         help="invocation count (default: paper sizes)")
    compare.add_argument("--window", type=float, default=200.0,
                         help="dispatch window in ms")
    compare.add_argument("--window-policy", choices=("fixed", "adaptive"),
                         default="fixed",
                         help="FaaSBatch window sizing (adaptive shrinks "
                              "the window with the arrival rate)")
    compare.add_argument("--cdfs", action="store_true",
                         help="print the latency CDF panels too")
    add_common(compare)
    add_tracing(compare)
    add_schedulers(compare)
    compare.set_defaults(func=cmd_compare)

    chaos = sub.add_parser(
        "chaos",
        help="replay a fault plan against all four schedulers with retries")
    chaos.add_argument("--plan", default=None, metavar="PATH",
                       help="fault plan JSON (default: built-in reference "
                            "plan)")
    chaos.add_argument("--workload", choices=("cpu", "io"), default="io")
    chaos.add_argument("--total", type=int, default=None,
                       help="invocation count (default: paper sizes)")
    chaos.add_argument("--window", type=float, default=200.0,
                       help="dispatch window in ms")
    chaos.add_argument("--max-attempts", type=int, default=5,
                       help="retry budget per invocation")
    chaos.add_argument("--backoff-ms", type=float, default=50.0,
                       help="base retry backoff in simulated ms")
    add_common(chaos)
    add_tracing(chaos)
    add_schedulers(chaos)
    chaos.set_defaults(func=cmd_chaos)

    sweep = sub.add_parser("sweep", help="sweep the dispatch interval")
    sweep.add_argument("--workload", choices=("cpu", "io"), default="io")
    sweep.add_argument("--total", type=int, default=200)
    sweep.add_argument("--windows", default="10,100,200,500",
                       help="comma-separated window sizes in ms")
    add_common(sweep)
    add_tracing(sweep)
    sweep.set_defaults(func=cmd_sweep)

    trace = sub.add_parser(
        "trace",
        help="write a generated trace to CSV, or summarize a span trace")
    trace.add_argument("--workload", choices=("cpu", "io"), default="cpu")
    trace.add_argument("--total", type=int, default=None)
    trace.add_argument("--out", default=None)
    add_common(trace)
    trace.set_defaults(func=cmd_trace)
    trace_sub = trace.add_subparsers(dest="trace_command")
    summarize = trace_sub.add_parser(
        "summarize",
        help="reduce an exported span trace (JSONL) to per-stage tables")
    summarize.add_argument("input", help="JSONL file written via --trace")
    summarize.set_defaults(func=cmd_trace_summarize)
    export = trace_sub.add_parser(
        "export",
        help="convert an exported span trace to a viewer format")
    export.add_argument("input", help="JSONL file written via --trace")
    export.add_argument("--out", default="trace.json",
                        help="output path (default: trace.json)")
    export.add_argument("--format", choices=("chrome",), default="chrome",
                        help="output format (chrome = Perfetto/"
                             "chrome://tracing trace-event JSON)")
    export.set_defaults(func=cmd_trace_export)
    critical = trace_sub.add_parser(
        "critical-path",
        help="attribute each invocation's latency to its dominant stage")
    critical.add_argument("input", help="JSONL file written via --trace")
    critical.set_defaults(func=cmd_trace_critical_path)

    report = sub.add_parser(
        "report",
        help="write a self-contained HTML comparison report")
    report.add_argument("--workload", choices=("cpu", "io"), default="io")
    report.add_argument("--total", type=int, default=None,
                        help="invocation count (default: paper sizes)")
    report.add_argument("--window", type=float, default=200.0,
                        help="dispatch window in ms")
    report.add_argument("--input", default=None, metavar="PATH",
                        help="render from an exported JSONL trace instead "
                             "of running the schedulers")
    report.add_argument("--out", default="report.html",
                        help="output path (default: report.html)")
    report.add_argument("--chrome", default=None, metavar="PATH",
                        help="also write a Perfetto/Chrome trace.json")
    add_common(report)
    add_schedulers(report)
    report.set_defaults(func=cmd_report)

    bench = sub.add_parser(
        "bench",
        help="measure simulator performance on a large tiled scenario")
    bench.add_argument("--invocations", type=int, default=50_000,
                       help="total arrivals in the tiled scenario")
    bench.add_argument("--functions", type=int, default=8,
                       help="distinct fib-family functions")
    bench.add_argument("--window", type=float, default=200.0,
                       help="dispatch window in ms")
    bench.add_argument("--tile-invocations", type=int, default=4000,
                       help="arrivals per scenario minute (burst density)")
    bench.add_argument("--cell", default=None, metavar="NAME",
                       help="run a named sharded cluster cell "
                            "(azure-smoke, azure-full) instead of the "
                            "scheduler grid")
    bench.add_argument("--out", default="BENCH_sim.json",
                       help="report path (JSON)")
    bench.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="run up to N isolated cells concurrently")
    bench.add_argument("--inline", action="store_true",
                       help="run cells in-process (RSS becomes a "
                            "process-wide high-water mark)")
    bench.add_argument("--window-cells", action="store_true",
                       help="measure FaaSBatch fixed-vs-adaptive window "
                            "sizing instead of the scheduler grid")
    bench.add_argument("--report", default=None, metavar="PATH",
                       help="with --cell: also write an HTML report with "
                            "the merged cluster telemetry panel")
    add_schedulers(bench)
    add_common(bench)
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the live HTTP gateway over the demo functions")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--policy",
                       choices=("faasbatch", "vanilla", "adaptive"),
                       default="faasbatch")
    serve.add_argument("--window-ms", type=float, default=10.0,
                       help="dispatch window in wall-clock ms")
    serve.add_argument("--max-queue-depth", type=int, default=2048,
                       help="per-function pending cap before shedding")
    serve.add_argument("--max-inflight", type=int, default=8192,
                       help="global in-flight request cap")
    serve.add_argument("--shed-policy", choices=("newest", "oldest"),
                       default="newest")
    serve.add_argument("--seed", type=int, default=0,
                       help="request-id seed (ids are req-<seed hex>-<n>)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="stream live spans to a rotating JSONL trace "
                            "file (readable by 'repro trace summarize')")
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive seeded open-loop load at a fresh gateway stack")
    loadgen.add_argument("--rps", type=float, default=1000.0,
                         help="offered arrival rate per cell")
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="seconds of offered load per cell")
    loadgen.add_argument("--policies", default="faasbatch,vanilla",
                         help="comma-separated cells to run "
                              "(faasbatch, vanilla, adaptive)")
    loadgen.add_argument("--transport", choices=("inproc", "http"),
                         default="inproc")
    loadgen.add_argument("--mix", default="io=0.1,echo=0.9",
                         help="traffic mix as name=weight pairs")
    loadgen.add_argument("--window-ms", type=float, default=10.0,
                         help="dispatch window in wall-clock ms")
    loadgen.add_argument("--deadline", type=float, default=10.0,
                         help="per-request gateway deadline in seconds")
    loadgen.add_argument("--request-timeout", type=float, default=0.0,
                         help="platform handler timeout in seconds "
                              "(0 = off)")
    loadgen.add_argument("--max-queue-depth", type=int, default=2048)
    loadgen.add_argument("--max-inflight", type=int, default=8192)
    loadgen.add_argument("--shed-policy", choices=("newest", "oldest"),
                         default="newest")
    loadgen.add_argument("--connections", type=int, default=32,
                         help="http transport: keep-alive pool size")
    loadgen.add_argument("--out", default=None, metavar="PATH",
                         help="write a gateway_cells bench artifact "
                              "(JSON)")
    loadgen.add_argument("--records", default=None, metavar="PATH",
                         help="write the gateway record stream as JSONL")
    loadgen.add_argument("--report", default=None, metavar="PATH",
                         help="write the HTML report with gateway panels")
    loadgen.add_argument("--trace", default=None, metavar="PATH",
                         help="record per-cell spans to a rotating JSONL "
                              "trace file (wall-clock timestamps)")
    add_common(loadgen)
    loadgen.set_defaults(func=cmd_loadgen)

    slo = sub.add_parser(
        "slo",
        help="evaluate SLO specs against bench artifacts and gateway "
             "records")
    slo.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                     help="bench artifact JSON files (must pass "
                          "repro.bench.load_report)")
    slo.add_argument("--spec", default=None, metavar="PATH",
                     help="SLO spec file ({'slos': [...]}; default: the "
                          "built-in gate)")
    slo.add_argument("--records", action="append", default=[],
                     metavar="PATH",
                     help="loadgen record JSONL for sliding-window burn "
                          "checks (repeatable)")
    slo.add_argument("--annotate", action="store_true",
                     help="rewrite each artifact with per-cell slo blocks "
                          "(validated, atomic)")
    slo.add_argument("--check", action="store_true",
                     help="exit nonzero if any check fails")
    slo.set_defaults(func=cmd_slo)

    sample = sub.add_parser("sample-azure",
                            help="write sample Azure-format trace files")
    sample.add_argument("--dir", required=True)
    sample.add_argument("--functions", type=int, default=5)
    add_common(sample)
    sample.set_defaults(func=cmd_sample_azure)

    replay = sub.add_parser("replay-azure",
                            help="replay real Azure trace files")
    replay.add_argument("--dir", default=".",
                        help="directory to search for the trace files")
    replay.add_argument("--invocations", default=None)
    replay.add_argument("--durations", default=None)
    replay.add_argument("--top", type=int, default=3,
                        help="replay the K hottest functions")
    replay.add_argument("--start-minute", type=int, default=0)
    replay.add_argument("--end-minute", type=int, default=None,
                        help="(default: the end of the day)")
    replay.add_argument("--window", type=float, default=200.0)
    add_common(replay)
    add_tracing(replay)
    add_schedulers(replay)
    replay.set_defaults(func=cmd_replay_azure)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
