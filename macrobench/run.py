"""One workload of the macro-benchmark, measured and checked.

    python3 macrobench/run.py --workload sim-sfs-dense --seed 13 \
        --seconds 10 --trace 0

builds the workload's inputs from the seed, drives ``repro`` through its
public functions for ``--seconds`` of measurement, checks the outputs, prints
every metric by name with its unit and ends with one JSON line.  ``--trace
0`` reports the end-to-end metrics and never imports the tracing file;
``--trace 1`` is a separate run that reports the per-layer metrics and
writes ``macrobench/out/trace-<workload>.jsonl``.  Exit code 0 means the run
measured and every check passed.
"""

from __future__ import annotations

import time

ENTERED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
EXPECTED_REL_TOL = 1e-6


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (smoke tests only; "
                             "expected/ is not consulted)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print how long it took")
    parser.add_argument("--record", action="store_true",
                        help="write expected/<workload>.json from this run")
    return parser.parse_args(argv)


def workload_class(name: str):
    from macrobench import gwload, simload

    if name in simload.SIM_POLICIES:
        return simload.SimWorkload
    return {"cluster-replay": simload.ClusterWorkload,
            "gw-inproc-mix": gwload.InprocMix,
            "gw-http-echo": gwload.HttpEcho}[name]


def sample_setup(args: argparse.Namespace) -> float:
    """Set-up seconds of one fresh process (``--setup-only`` child)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--scale", str(args.scale),
         "--setup-only"],
        capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr[-2000:]}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def expected_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "expected", f"{workload}.json")


def expected_problems(workload: str,
                      summary: Dict[str, object]) -> List[str]:
    """Differences from the summary recorded at the default seed."""
    try:
        with open(expected_path(workload)) as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        return [f"no recorded summary at {expected_path(workload)}"]
    problems = []
    for key in sorted(set(expected) | set(summary)):
        want, got = expected.get(key), summary.get(key)
        if isinstance(want, float) and isinstance(got, float):
            same = math.isclose(want, got, rel_tol=EXPECTED_REL_TOL)
        else:
            same = want == got
        if not same:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    from macrobench import measure

    args = parse_args(argv)
    if args.workload not in measure.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(measure.WORKLOADS)}", file=sys.stderr)
        return 2

    import repro
    if not os.path.abspath(repro.__file__).startswith(REPRO_DIR + os.sep):
        print(f"imported repro from {repro.__file__}, not from {REPRO_DIR}",
              file=sys.stderr)
        return 2

    make = workload_class(args.workload)
    if args.setup_only:
        workload = make(args.workload, args.seed, args.seconds, args.scale)
        setup_s = time.perf_counter() - ENTERED
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    metrics: Dict[str, float] = {}
    if args.trace:
        from macrobench.tracing import Tracer

        tracer = Tracer(REPRO_DIR, BENCH_DIR)
        workload = make(args.workload, args.seed, args.seconds, args.scale,
                        span=tracer.span)
        outcome = workload.trace_layers(tracer)
        workload.close()
        tracer.write(os.path.join(BENCH_DIR, "out",
                                  f"trace-{args.workload}.jsonl"))
        names = [name for name, _unit, _better in measure.PER_LAYER]
        metrics = {name: 0.0 for name in names}
    else:
        before_samples = time.perf_counter() - ENTERED
        setups = [sample_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        started = time.perf_counter()
        workload = make(args.workload, args.seed, args.seconds, args.scale)
        setups.append(before_samples + time.perf_counter() - started)
        outcome = workload.measure()
        workload.close()
        names = [name for name, *_rest in measure.END_TO_END]
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = measure.peak_rss_mb()
    metrics.update(outcome.metrics)
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metric names {sorted(metrics)} are not the "
                           f"declared {sorted(names)}")

    problems = list(outcome.problems)
    pinned = (outcome.summary is not None and args.scale == 1.0
              and args.seed == measure.DEFAULT_SEED)
    if pinned and args.record:
        with open(expected_path(args.workload), "w") as handle:
            json.dump(outcome.summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    elif pinned:
        problems += expected_problems(args.workload, outcome.summary)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name in names:
        row = measure.metric(name, metrics[name])
        note = (f"  (n={outcome.samples})" if name.startswith("latency_")
                else "")
        print(f"  {name:<40} {row['value']:>16.6f} {row['unit']}{note}")
    for name, value in outcome.notes.items():
        print(f"note {name} {value:.6f}")
    if outcome.summary is not None:
        print("summary " + json.dumps(outcome.summary, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: measure.metric(name, metrics[name])
                    for name in names},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        print(f"nothing to measure: {REPRO_DIR} is missing",
              file=sys.stderr)
        sys.exit(2)
    # The script's own directory comes off the path: the benchmark's
    # modules are imported as ``macrobench.*`` and the program from src/.
    sys.path[0:1] = [SRC, ROOT]
    sys.exit(main())
