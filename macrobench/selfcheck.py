"""Does the benchmark agree with itself?

    python3 macrobench/selfcheck.py --runs 3

runs the suite as two interleaved sets of the same code (A B A B ...,
``--runs`` runs per set and workload, run *i* of both sets on seed 13 + i)
and prints, per workload and end-to-end metric, the two medians, how much
worse B's is than A's, each set's spread (the distance between its
quartiles over its median) and the bound.  It fails when

* a gap exceeds its bound, or, from five runs per set up, a spread other
  than ``setup_s``'s does — the two things a later change is judged by;
* a simulated metric differs between the sets on the same seed;
* FaaSBatch does not provision fewer containers and a lower median latency
  than Vanilla on a seed (the paper's claim, checked where all three
  simulator summaries are at hand).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[0:1] = [ROOT]

from macrobench import measure  # noqa: E402

SIMULATED = ("latency_p50_ms", "latency_p95_ms", "slo_goodput_ratio")
SIMULATED_ON = ("sim-vanilla-dense", "sim-sfs-dense", "sim-faasbatch-obs",
                "cluster-replay")
MIN_RUNS_FOR_SPREAD = 5


def run_once(workload: str, seed: int, seconds: float
             ) -> Tuple[Dict[str, float], Dict[str, float], Optional[dict]]:
    """``(metrics, notes, summary)`` of one untraced benchmark run."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    notes = {}
    summary = None
    for line in lines:
        if line.startswith("note "):
            _tag, name, value = line.split()
            notes[name] = float(value)
        elif line.startswith("summary "):
            summary = json.loads(line[len("summary "):])
    return ({name: row["value"] for name, row in result["metrics"].items()},
            notes, summary)


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set and workload (at least 3)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", nargs="*",
                        default=list(measure.WORKLOADS))
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")

    # values[workload][set][metric] -> one value per run
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        workload: {"A": {}, "B": {}} for workload in args.workloads}
    rep_spreads: Dict[str, List[float]] = {w: [] for w in args.workloads}
    failures: List[str] = []
    for run in range(args.runs):
        seed = measure.DEFAULT_SEED + run
        summaries: Dict[str, dict] = {}
        for side in ("A", "B"):
            for workload in args.workloads:
                metrics, notes, summary = run_once(workload, seed,
                                                   args.seconds)
                print(f"run {run} set {side} seed {seed} {workload}: "
                      + " ".join(f"{name}={value:.6g}"
                                 for name, value in metrics.items()),
                      flush=True)
                for name, value in metrics.items():
                    values[workload][side].setdefault(name, []).append(value)
                rep_spreads[workload].append(notes["host.rep_spread"])
                if summary is not None:
                    summaries[workload] = summary
        vanilla = summaries.get("sim-vanilla-dense")
        faasbatch = summaries.get("sim-faasbatch-obs")
        if vanilla and faasbatch and not (
                faasbatch["containers"] < vanilla["containers"]
                and faasbatch["p50_ms"] < vanilla["p50_ms"]):
            failures.append(
                f"seed {seed}: FaaSBatch ({faasbatch['containers']} "
                f"containers, p50 {faasbatch['p50_ms']:.0f} ms) is not below "
                f"Vanilla ({vanilla['containers']}, "
                f"{vanilla['p50_ms']:.0f} ms)")

    print()
    print(f"| workload | metric | median A | median B | B worse by | "
          f"spread A | spread B | bound | rep_spread | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        noise = statistics.median(rep_spreads[workload])
        for name, unit, better, bound in measure.END_TO_END:
            first = values[workload]["A"][name]
            second = values[workload]["B"][name]
            gap = worse_by(statistics.median(first),
                           statistics.median(second), better)
            spreads = (spread(first), spread(second))
            verdict = "ok"
            if gap > bound:
                verdict = "GAP"
                failures.append(f"{workload} {name}: B is {gap:.1%} worse "
                                f"than A, bound {bound:.0%}")
            if (args.runs >= MIN_RUNS_FOR_SPREAD and name != "setup_s"
                    and max(spreads) > bound):
                verdict = "SPREAD"
                failures.append(f"{workload} {name}: spread "
                                f"{max(spreads):.1%}, bound {bound:.0%}")
            if (workload in SIMULATED_ON and name in SIMULATED
                    and first != second):
                verdict = "DIFFERS"
                failures.append(f"{workload} {name}: simulated values "
                                f"differ between the sets")
            print(f"| {workload} | {name} ({unit}) "
                  f"| {statistics.median(first):.6g} "
                  f"| {statistics.median(second):.6g} | {gap:+.1%} "
                  f"| {spreads[0]:.1%} | {spreads[1]:.1%} | {bound:.0%} "
                  f"| {noise:.1%} | {verdict} |")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
