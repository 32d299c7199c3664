"""The run driver: worker platforms on one environment, replayed to the end.

:func:`run_workers` is the one loop that simulates workers.  It builds each
worker (machine → CPU → platform → scheduler) on one shared
:class:`Environment`, feeds the records through one
:class:`~repro.platformsim.gateway.ReplayInjector` whose submit routes each
record to its worker, counts final outcomes with completion listeners and
runs until every submitted invocation has one.  Two thin callers use it:

* :func:`run_experiment` — one scheduler, one trace, one worker machine,
  packaged as an :class:`~repro.platformsim.results.ExperimentResult`;
* ``repro.cluster.sharded.run_shard`` — the workers one shard owns.

Runs are deterministic: identical inputs produce identical results.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, Mapping, Optional,
                    Sequence, TYPE_CHECKING)

from repro.common.units import HOUR
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.function import FunctionSpec, Invocation
from repro.obs import Observability
from repro.platformsim.gateway import ReplayInjector
from repro.platformsim.platform import ServerlessPlatform
from repro.platformsim.results import ExperimentResult, InvocationColumns
from repro.sim.kernel import Environment
from repro.sim.machine import Machine, build_cpu
from repro.workload.trace import Trace, TraceRecord

if TYPE_CHECKING:  # the scheduler type lives in baselines; avoid a cycle
    from repro.baselines.base import Scheduler

#: Simulated time a run may take past its last arrival before it counts as
#: stuck (a scheduling deadlock or a pathological configuration).
DRAIN_MS = 2.0 * HOUR


@dataclass
class Workers:
    """A finished simulation, readable inside :func:`run_workers`' block."""

    env: Environment
    #: Worker index -> its platform, in the order the caller gave them.
    platforms: Dict[int, ServerlessPlatform]
    #: Worker index -> final outcomes it reported.
    completed: Dict[int, int]
    submitted: int


@contextmanager
def run_workers(schedulers: Mapping[int, "Scheduler"],
                records: Iterable[TraceRecord],
                route: Callable[[TraceRecord], int],
                functions: Sequence[FunctionSpec],
                on_complete: Callable[[Invocation], None],
                until_ms: Optional[float],
                strict_memory: bool = True,
                sample_resources: bool = False,
                obs: Optional[Observability] = None,
                fault_plan: Optional[FaultPlan] = None,
                resilience: Optional[ResiliencePolicy] = None,
                ) -> Iterator[Workers]:
    """Simulate one worker per scheduler until every record has an outcome.

    ``route(record)`` names the worker a record goes to; ``on_complete``
    sees every final outcome.  Every worker shares ``obs`` (a fresh bundle
    when None), takes the fault plan and resilience policy if given, and
    runs the 1 Hz resource sampler up to ``until_ms`` when
    ``sample_resources`` is set.  Simulated time past ``until_ms`` raises
    :class:`~repro.common.errors.SimulationError`.  Every worker is the
    default calibration's machine.

    The block reads the finished :class:`Workers`.  On leaving it the
    world is taken apart, so reference counting frees it at once: nothing
    built here may be read afterwards.
    """
    env = Environment()
    calibration = DEFAULT_CALIBRATION
    obs = obs if obs is not None else Observability()
    platforms: Dict[int, ServerlessPlatform] = {}
    completed = dict.fromkeys(schedulers, 0)
    submitted = finished = 0
    replayed = False
    all_done = env.event()

    def maybe_finish() -> None:
        if replayed and finished == submitted and not all_done.triggered:
            all_done.succeed()

    def listener(worker: int) -> Callable[[Invocation], None]:
        def count(invocation: Invocation) -> None:
            nonlocal finished
            on_complete(invocation)
            completed[worker] += 1
            finished += 1
            maybe_finish()
        return count

    def submit(record: TraceRecord) -> None:
        nonlocal submitted
        submitted += 1
        platforms[route(record)].submit(record)

    def end_of_records() -> None:
        nonlocal replayed
        replayed = True
        maybe_finish()

    def waiter():
        yield all_done

    try:
        for worker, scheduler in schedulers.items():
            cores = calibration.worker_cores
            machine = Machine(env, cores=cores,
                              memory_gb=calibration.worker_memory_gb,
                              cpu=build_cpu(env, scheduler.cpu_discipline,
                                            cores),
                              strict_memory=strict_memory)
            platform = platforms[worker] = ServerlessPlatform(
                env, machine, calibration, obs=obs, resilience=resilience)
            if fault_plan is not None:
                FaultInjector(fault_plan).install(platform)
            for spec in functions:
                platform.register_function(spec)
            platform.completion_listeners.append(listener(worker))
            if sample_resources:
                machine.start_sampler(horizon_ms=until_ms)
            scheduler.start(platform)
        ReplayInjector(env, records, submit, end_of_records)
        env.run_process(env.process(waiter(), name="run-waiter"),
                        until=until_ms)
        yield Workers(env, platforms, completed, submitted)
    finally:
        _dismantle(env, platforms.values(), obs)


def _dismantle(env: Environment, platforms: Iterable[ServerlessPlatform],
               obs: Observability) -> None:
    """Break the finished world's reference cycles.

    Processes, events, containers and platforms refer to each other; left
    alone, only the cyclic collector frees them, so back-to-back runs
    would peak with two worlds alive.
    """
    obs.unbind()
    env.close()
    for platform in platforms:
        platform.dismantle()


def run_experiment(scheduler: "Scheduler",
                   trace: Trace,
                   functions: Sequence[FunctionSpec],
                   workload_label: str = "workload",
                   window_ms: Optional[float] = None,
                   strict_memory: bool = True,
                   obs: Optional[Observability] = None,
                   fault_plan: Optional[FaultPlan] = None,
                   resilience: Optional[ResiliencePolicy] = None
                   ) -> ExperimentResult:
    """Run *scheduler* over *trace* on one worker and return the result.

    ``window_ms`` is only a label (the scheduler object already carries its
    interval); it flows into the result so sweep tables can index rows.
    Simulated time past the trace's last arrival plus :data:`DRAIN_MS`
    raises :class:`SimulationError`.  ``obs`` supplies
    the run's observability bundle (pass ``Observability(tracing=True)``
    to record per-invocation span timelines); tracing and metrics are pure
    observers, so results are identical with or without them.

    ``fault_plan`` installs a fresh :class:`FaultInjector` executing the
    plan against this run; ``resilience`` turns on the recovery layer
    (retries and the circuit breaker).  Both default to off, and
    an empty plan is bit-identical to no plan at all.  The 1 Hz resource
    sampler (Figs. 13/14) always runs.
    """
    columns = InvocationColumns(functions)
    with run_workers({0: scheduler}, trace, lambda _record: 0, functions,
                     columns.append, until_ms=trace.end_ms + DRAIN_MS,
                     strict_memory=strict_memory,
                     sample_resources=True, obs=obs, fault_plan=fault_plan,
                     resilience=resilience) as run:
        platform = run.platforms[0]
        clients_created, _reuses, multiplexer_entries = platform.docker.totals()
        return ExperimentResult(
            scheduler_name=scheduler.name,
            workload_label=workload_label,
            window_ms=window_ms,
            calibration=platform.calibration,
            columns=columns,
            provisioned_containers=platform.provisioned_containers(),
            clients_created=clients_created,
            multiplexer_entries=multiplexer_entries,
            samples=platform.machine.samples(),
            completion_ms=run.env.now,
            kernel_events=run.env.events_processed,
            final_busy_core_ms=platform.machine.cpu.busy_core_ms(),
            trace=platform.obs.tracer,
            metrics=platform.obs.metrics,
            sampler=platform.obs.sampler)
