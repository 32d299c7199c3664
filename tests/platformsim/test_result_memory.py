"""A finished run's result is data: it holds no path into the simulation.

The main case is one Vanilla run over the dense replay minute (4 000
invocations, the ``sim-vanilla-dense`` scenario) with observability off,
traced by ``tracemalloc``; afterwards only the :class:`ExperimentResult`
is held.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.baselines import SchedulerBuild, VanillaScheduler, build_scheduler
from repro.cluster.sharded import ShardedClusterConfig, run_shard
from repro.bench import BenchConfig, bench_trace
from repro.common.errors import ColdStartFailed
from repro.faults import ResiliencePolicy, reference_plan
from repro.obs import Observability
from repro.platformsim import experiment
from repro.sim.kernel import Environment
from repro.workload.generator import fib_family_specs
from tests.traces import multi_function_trace

#: Retained bytes per invocation.  Measured 88 B on CPython 3.11: six stamp
#: floats and four 32-bit codes in the result's columns, a payload
#: reference, and the run's samples and metrics spread over 4 000.  (382 B
#: while the result kept one Invocation object each, 3 170 B while it
#: still reached the whole simulation through sampler probes.)
RETAINED_BYTES_PER_INVOCATION = 100


def recording(environments):
    """An Environment class that appends a weakref to each instance."""

    class RecordedEnvironment(Environment):
        __slots__ = ()

        def __init__(self) -> None:
            super().__init__()
            environments.append(weakref.ref(self))

    return RecordedEnvironment


@pytest.fixture(scope="module")
def finished_run():
    trace = bench_trace(BenchConfig(invocations=4000, functions=8,
                                    tile_invocations=4000, seed=13))
    specs = fib_family_specs(8)
    environments = []
    patch = pytest.MonkeyPatch()
    patch.setattr(experiment, "Environment", recording(environments))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = experiment.run_experiment(VanillaScheduler(), trace, specs,
                                           strict_memory=False)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        patch.undo()
    return result, environments, retained


def test_environment_dies_with_only_the_result_held(finished_run):
    result, environments, _retained = finished_run
    assert len(result.invocations) == 4000
    (environment,) = environments
    assert environment() is None
    # What the result keeps still reads: metrics, frozen clock included.
    snapshot = result.metrics_snapshot()
    assert snapshot["sim.time_ms"]["value"] == result.completion_ms
    assert snapshot["platform.completed"]["value"] == 4000


def test_retained_bytes_per_invocation_are_bounded(finished_run):
    result, _environments, retained = finished_run
    per_invocation = retained / len(result.invocations)
    assert per_invocation < RETAINED_BYTES_PER_INVOCATION, per_invocation


def test_failed_invocations_keep_no_frames(monkeypatch):
    """A failure raised inside the run (a failed cold start) is kept by
    type and message, not with the frames of the finished simulation."""
    environments = []
    monkeypatch.setattr(experiment, "Environment", recording(environments))
    result = experiment.run_experiment(
        VanillaScheduler(),
        multi_function_trace(seed=42, total=120, functions=3),
        fib_family_specs(3), fault_plan=reference_plan())
    assert ColdStartFailed in {type(inv.error)
                               for inv in result.failed_invocations()}
    gc.collect()
    (environment,) = environments
    assert environment() is None


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", ["vanilla", "sfs", "faasbatch", "hiku"])
def test_finished_world_is_freed_without_the_cyclic_collector(
        monkeypatch, collector_off, policy):
    """Reference counting alone frees a finished run, even one that leaves
    warm containers, parked loops and pending timers behind."""
    environments = []
    monkeypatch.setattr(experiment, "Environment", recording(environments))
    result = experiment.run_experiment(
        build_scheduler(policy, SchedulerBuild(window_ms=200.0)),
        multi_function_trace(seed=42, total=120, functions=3),
        fib_family_specs(3), fault_plan=reference_plan(),
        resilience=ResiliencePolicy(max_attempts=3, hedge_after_ms=300.0),
        obs=Observability(tracing=True, sampling=True))
    assert len(result.invocations) == 120
    (environment,) = environments
    assert environment() is None


def test_finished_shard_is_freed_without_the_cyclic_collector(
        monkeypatch, collector_off):
    environments = []
    monkeypatch.setattr(experiment, "Environment", recording(environments))
    shard = run_shard(ShardedClusterConfig(
        invocations=400, functions=4, tile_invocations=400, workers=2,
        shards=1), 0)
    assert shard.sink.completed == 400
    (environment,) = environments
    assert environment() is None
