"""Fig. 1 — Sharing vs Monopoly: concurrency 10→640, fib N=30.

The paper warms containers, fires C concurrent fib(30) invocations either
into a single container ("Sharing") or one container each ("Monopoly") on a
32-core worker, and finds the execution times nearly identical.  We
reproduce the measurement on the simulated CPU model.
"""

from __future__ import annotations

import pytest

from repro.analysis import emit, sharing_vs_monopoly_table
from repro.sim.fair_share import FairShareCpu
from repro.sim.kernel import Environment
from repro.workload.durations import fib_duration_ms

CONCURRENCIES = (10, 20, 40, 80, 160, 320, 640)
WORK_MS = fib_duration_ms(30)
CORES = 32


def run_mapping(concurrency: int, containers: int) -> float:
    """Mean completion time of `concurrency` fib(30) tasks spread across
    `containers` CPU groups on a warm 32-core worker."""
    env = Environment()
    cpu = FairShareCpu(env, cores=CORES)
    for index in range(containers):
        cpu.create_group(f"c{index}", cap=None)
    completions = []

    def task(group):
        yield cpu.submit(WORK_MS, group=group)
        completions.append(env.now)

    for index in range(concurrency):
        env.process(task(f"c{index % containers}"))
    env.run()
    return sum(completions) / len(completions)


def run_figure():
    series = {}
    for concurrency in CONCURRENCIES:
        sharing = run_mapping(concurrency, containers=1)
        monopoly = run_mapping(concurrency, containers=concurrency)
        series[concurrency] = {"sharing_ms": sharing,
                               "monopoly_ms": monopoly}
    return series


def test_fig01_sharing_vs_monopoly(benchmark):
    series = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    headers, rows = sharing_vs_monopoly_table(series)
    emit("fig01_sharing_vs_monopoly", headers, rows,
         title="Fig. 1 — execution time: Sharing vs Monopoly (fib N=30)")
    for concurrency, entry in series.items():
        ratio = entry["sharing_ms"] / entry["monopoly_ms"]
        # The paper's claim: similar performance for all concurrencies.
        assert ratio == pytest.approx(1.0, rel=0.05), (
            f"sharing and monopoly diverge at concurrency {concurrency}")
    # Sanity: work conservation makes time scale with concurrency/cores.
    assert series[640]["sharing_ms"] > series[10]["sharing_ms"] * 10
