"""Every workload end to end at a tenth of its size, and the CLI contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from macrobench import measure, run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "macrobench", "run.py")
SMOKE = ["--seed", "14", "--seconds", "1", "--scale", "0.1"]
END_TO_END = {name for name, *_ in measure.END_TO_END}
PER_LAYER = {name for name, *_ in measure.PER_LAYER}


@pytest.mark.parametrize("name", list(measure.WORKLOADS))
def test_workload_measures_and_checks(name):
    workload = run.workload_class(name)(name, 14, 1.0, 0.1)
    try:
        outcome = workload.measure()
    finally:
        workload.close()
    assert outcome.problems == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert set(outcome.metrics) | {"setup_s", "peak_rss_mb"} == END_TO_END
    assert all(value > 0 for value in outcome.metrics.values())
    assert outcome.notes["host.rep_spread"] >= 0.0


def result_of(args):
    done = subprocess.run([sys.executable, RUN] + args, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_prints_the_end_to_end_result_line():
    result = result_of(["--workload", "sim-sfs-dense", "--trace", "0"]
                       + SMOKE)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert result["metrics"]["setup_s"]["unit"] == "s"


def test_traced_run_prints_layers_and_writes_spans():
    out = os.path.join(ROOT, "macrobench", "out", "trace-sim-sfs-dense.jsonl")
    if os.path.exists(out):
        os.remove(out)
    result = result_of(["--workload", "sim-sfs-dense", "--trace", "1"]
                       + SMOKE)
    assert set(result["metrics"]) == PER_LAYER
    layers = {name: row["value"] for name, row in result["metrics"].items()}
    assert layers["sim.fair_share.self_s"] == 0.0
    assert layers["sim.sfs_cpu.self_s"] > 0.0
    assert layers["sim.kernel.events"] > 0
    with open(out) as handle:
        spans = [json.loads(line) for line in handle]
    names = {span["name"] for span in spans}
    assert {"workload.synth", "platformsim.run_experiment",
            "sampler.cpu_by_module"} <= names


def test_nothing_to_measure_is_an_error(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "macrobench"),
                    tmp_path / "macrobench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "macrobench/run.py", "--workload", "sim-sfs-dense",
         "--seed", "13", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_expected_summaries_show_the_papers_claim():
    def recorded(name):
        with open(run.expected_path(name)) as handle:
            return json.load(handle)

    vanilla = recorded("sim-vanilla-dense")
    faasbatch = recorded("sim-faasbatch-obs")
    assert faasbatch["containers"] < vanilla["containers"]
    assert faasbatch["p50_ms"] < vanilla["p50_ms"]
    for name in ("sim-vanilla-dense", "sim-sfs-dense", "sim-faasbatch-obs",
                 "cluster-replay"):
        summary = recorded(name)
        assert summary["completed"] == summary["submitted"]
        assert summary["failed"] == 0
