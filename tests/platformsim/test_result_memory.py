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

from repro.baselines import VanillaScheduler
from repro.bench import BenchConfig, bench_trace
from repro.common.errors import ColdStartFailed
from repro.faults import reference_plan
from repro.platformsim import experiment
from repro.sim.kernel import Environment
from repro.workload.generator import fib_family_specs
from tests.traces import multi_function_trace

#: Retained bytes per invocation.  Measured 382 B on CPython 3.11: the
#: slotted Invocation, its id string and its stamp floats.  (3 170 B while
#: the result still reached the whole simulation through sampler probes.)
RETAINED_BYTES_PER_INVOCATION = 450


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
