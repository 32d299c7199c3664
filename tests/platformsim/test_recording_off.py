"""Off means off: a disabled tracer is never entered.

Every tracer call site in the platform, the container model, the
schedulers and the fault layer tests ``enabled`` before it builds its
arguments.  With tracing off, a full ``run_experiment`` — faults and
retries included — must therefore never reach a
recording method.  The same scenarios run once with tracing on, which
shows that the off runs really pass every call site.
"""

from __future__ import annotations

import pytest

from repro.baselines import SfsScheduler, VanillaScheduler
from repro.core import FaaSBatchConfig, FaaSBatchScheduler
from repro.faults import ResiliencePolicy, reference_plan
from repro.faults.plan import FaultPlan, OomKillFault
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import io_profile
from repro.obs import Observability
from repro.obs.trace import InvocationTracer
from repro.platformsim import run_experiment
from repro.workload.generator import fib_family_specs
from repro.workload.trace import Trace, TraceRecord
from tests.traces import multi_function_trace, peak_memory_mb

RECORDERS = ("invocation_arrived", "invocation_dispatched",
             "execution_started", "execution_completed", "execution_failed",
             "invocation_responded", "container_event", "annotation")


def _burst(count):
    return Trace([TraceRecord(index * 10.0, "f") for index in range(count)])


IO_SPEC = [FunctionSpec(
    function_id="f", kind=FunctionKind.IO,
    profile_factory=lambda _payload: io_profile(
        factory="boto3", args_hash=1, blob_wait_ms=40.0))]


SCENARIOS = {
    "vanilla+faults": lambda: dict(
        scheduler=VanillaScheduler(),
        trace=multi_function_trace(seed=7, total=160, functions=3),
        functions=fib_family_specs(3), fault_plan=reference_plan(seed=5),
        resilience=ResiliencePolicy()),
    "faasbatch+faults": lambda: dict(
        scheduler=FaaSBatchScheduler(FaaSBatchConfig(window_ms=150.0)),
        trace=multi_function_trace(seed=7, total=160, functions=3),
        functions=fib_family_specs(3), fault_plan=reference_plan(seed=5),
        resilience=ResiliencePolicy()),
    "sfs": lambda: dict(
        scheduler=SfsScheduler(),
        trace=multi_function_trace(seed=3, total=60, functions=3),
        functions=fib_family_specs(3)),
    "vanilla+oom": lambda: dict(
        scheduler=VanillaScheduler(), trace=_burst(6), functions=IO_SPEC,
        fault_plan=FaultPlan(oom_kills=(OomKillFault(
            threshold_mb=0.7 * peak_memory_mb(run_experiment(
                VanillaScheduler(), _burst(6), IO_SPEC)),
            max_kills=1),)),
        resilience=ResiliencePolicy(max_attempts=4)),
}


def _run(name, recording):
    kwargs = SCENARIOS[name]()
    scheduler, trace, functions = (kwargs.pop("scheduler"),
                                   kwargs.pop("trace"),
                                   kwargs.pop("functions"))
    return run_experiment(scheduler, trace, functions,
                          obs=Observability(tracing=recording), **kwargs)


def test_recording_runs_reach_every_kind_of_call_site():
    kinds = set()
    for name in SCENARIOS:
        result = _run(name, recording=True)
        assert len(result.trace) > 0
        kinds.update(a.kind for a in result.trace.annotations)
        kinds.update(e.kind for e in result.trace.container_events)
    assert {"fault-container-crashed", "fault-cold-start-failed",
            "fault-dispatch-error", "fault-straggler-began",
            "fault-oom-kill", "retry-scheduled", "batch-started",
            "released"} <= kinds


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_disabled_recorders_are_never_entered(name, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a disabled recorder was entered")

    for method in RECORDERS:
        monkeypatch.setattr(InvocationTracer, method, refuse)
    result = _run(name, recording=False)
    assert result.invocations
