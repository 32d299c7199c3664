"""Experiment runner: one scheduler, one trace, one worker machine.

Builds the whole stack (environment → machine → platform), installs the
scheduler's CPU discipline, replays the trace, runs the simulation to full
completion and packages an :class:`~repro.platformsim.results.ExperimentResult`.
Runs are deterministic: identical inputs produce identical results.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.common.units import HOUR
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.model.calibration import Calibration, DEFAULT_CALIBRATION
from repro.model.function import FunctionSpec
from repro.obs import Observability
from repro.platformsim.gateway import start_replay
from repro.platformsim.platform import ServerlessPlatform
from repro.platformsim.results import ExperimentResult
from repro.sim.kernel import Environment
from repro.sim.machine import Machine, build_cpu
from repro.workload.trace import Trace

if TYPE_CHECKING:  # the scheduler type lives in baselines; avoid a cycle
    from repro.baselines.base import Scheduler


def run_experiment(scheduler: "Scheduler",
                   trace: Trace,
                   functions: Sequence[FunctionSpec],
                   calibration: Calibration = DEFAULT_CALIBRATION,
                   workload_label: str = "workload",
                   window_ms: Optional[float] = None,
                   timeout_ms: Optional[float] = None,
                   strict_memory: bool = True,
                   obs: Optional[Observability] = None,
                   fault_plan: Optional[FaultPlan] = None,
                   resilience: Optional[ResiliencePolicy] = None
                   ) -> ExperimentResult:
    """Run *scheduler* over *trace* and return the measured result.

    ``window_ms`` is only a label (the scheduler object already carries its
    interval); it flows into the result so sweep tables can index rows.
    ``timeout_ms`` bounds simulated (not wall-clock) time: exceeding it
    raises :class:`SimulationError`, which in practice means a scheduling
    deadlock or a pathological configuration.  By default it is the trace's
    last absolute arrival plus two hours of drain time.  ``obs`` supplies
    the run's observability bundle (pass ``Observability(tracing=True)``
    to record per-invocation span timelines); tracing and metrics are pure
    observers, so results are identical with or without them.

    ``fault_plan`` installs a fresh :class:`FaultInjector` executing the
    plan against this run; ``resilience`` turns on the recovery layer
    (retries/timeouts/hedging/circuit breaker).  Both default to off, and
    an empty plan is bit-identical to no plan at all.
    """
    if timeout_ms is None:
        timeout_ms = trace.end_ms + 2.0 * HOUR
    env = Environment()
    cpu = build_cpu(env, scheduler.cpu_discipline, calibration.worker_cores)
    machine = Machine(env, cores=calibration.worker_cores,
                      memory_gb=calibration.worker_memory_gb,
                      cpu=cpu, strict_memory=strict_memory)
    platform = ServerlessPlatform(env, machine, calibration, obs=obs,
                                  resilience=resilience)
    if fault_plan is not None:
        FaultInjector(fault_plan).install(platform)
    for spec in functions:
        platform.register_function(spec)

    all_done = platform.expect_invocations(len(trace))
    machine.start_sampler(horizon_ms=timeout_ms)
    scheduler.start(platform)
    start_replay(platform, trace)

    def waiter():
        count = yield all_done
        return count

    completion_process = env.process(waiter(), name="experiment-waiter")
    completed_count = env.run_process(completion_process, until=timeout_ms)
    if completed_count != len(trace):
        raise SimulationError(
            f"expected {len(trace)} completions, got {completed_count}")

    clients_created, _reuses, multiplexer_entries = platform.docker.totals()
    # The result keeps no path back into env: no probes, no error frames.
    platform.obs.unbind()
    for invocation in platform.completed:
        if invocation.error is not None:
            invocation.error.__traceback__ = None
    return ExperimentResult(
        scheduler_name=scheduler.name,
        workload_label=workload_label,
        window_ms=window_ms,
        calibration=calibration,
        invocations=list(platform.completed),
        provisioned_containers=platform.provisioned_containers(),
        clients_created=clients_created,
        multiplexer_entries=multiplexer_entries,
        samples=machine.samples(),
        completion_ms=env.now,
        kernel_events=env.events_processed,
        final_busy_core_ms=cpu.busy_core_ms(),
        trace=platform.obs.tracer,
        metrics=platform.obs.metrics,
        sampler=platform.obs.sampler)
