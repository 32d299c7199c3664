"""The macro-benchmark's correctness pin, visible in tier-1.

``macrobench/run.py`` refuses a run (``correct: false``) when a sim
workload's simulated summary at seed 13 differs from
``macrobench/expected/<workload>.json`` — integers exactly (``kernel_events``
among them), floats to 1e-6 relative.  An engine change can break that
without failing a single unit test, so the simulator workloads that run
in one process — the two fair-share ones and ``sim-sfs-dense`` (the SFS
discipline) — are driven once here and judged by the benchmark's own rule,
imported rather than copied.
"""

from __future__ import annotations

import pytest

simload = pytest.importorskip("macrobench.simload")
run = pytest.importorskip("macrobench.run")


@pytest.mark.parametrize(
    "name", ["sim-vanilla-dense", "sim-faasbatch-obs", "sim-sfs-dense"])
def test_simulated_summary_matches_the_benchmarks_expectation(name):
    workload = simload.SimWorkload(name, seed=13, seconds=0.0, scale=1.0)
    summary = workload.run_once(0).summary
    assert run.expected_problems(name, summary) == []
