"""Scheduler interface and the shared dispatch pipeline.

A scheduler is a *policy* object.  The experiment harness constructs the
platform, then calls :meth:`Scheduler.start` exactly once; the scheduler
spawns its serving processes (typically one loop consuming the platform's
request queue) and dispatches invocations until the run ends.

Schedulers also declare which CPU discipline their worker machine uses:
every policy runs on the default fair-share CPU except SFS, which brings its
own user-space scheduling discipline (:class:`repro.sim.sfs_cpu.SfsCpu`).

The dispatch pipeline
---------------------
All four policies (Vanilla, SFS, Kraken, FaaSBatch) ultimately do the same
thing with a batch of invocations: check the warm pool, pay the platform's
dispatch/launch CPU work, obtain a container, stamp dispatch (faults +
resilience watchdogs included), execute, respond, and return the container
to the keep-alive pool.  :func:`run_dispatch_pipeline` is that one code
path; a :class:`DispatchPlan` captures the policy-specific choices:

======================  ========================  =========================
plan field              Vanilla / SFS / Kraken    FaaSBatch producer
======================  ========================  =========================
concurrency_limit       1 (serial queue)          None (parallel expansion)
with_multiplexer        False                     True
acquire_on_miss         False — ``cold_start``    True — ``acquire_container``
                        straight after the launch (re-checks the warm pool
                        decision                  after the launch decision)
early_return            False                     config (future-work mode)
batch_event_function_id None                      the group's function id
record_batch_size_metric True                     False (group_size instead)
======================  ========================  =========================
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.model.container import SimContainer
from repro.model.function import FunctionSpec, Invocation
from repro.common.errors import ColdStartError
from repro.sim.machine import CpuDiscipline

if TYPE_CHECKING:
    from repro.platformsim.platform import ServerlessPlatform

__all__ = ["CpuDiscipline", "DispatchPlan", "Scheduler",
           "SERIAL_DISPATCH_PLAN", "execute_on_container",
           "run_dispatch_pipeline"]


@dataclass(frozen=True)
class DispatchPlan:
    """The policy-specific knobs of the shared dispatch pipeline."""

    #: In-container concurrency (1 = serial queue, None = unbounded threads).
    concurrency_limit: Optional[int] = 1
    #: Attach the FaaSBatch resource multiplexer to cold-started containers.
    with_multiplexer: bool = False
    #: On a warm miss, go through ``acquire_container`` (which re-checks the
    #: warm pool after the launch decision) instead of ``cold_start``.
    acquire_on_miss: bool = False
    #: Respond to each caller as its own invocation finishes instead of when
    #: the whole batch does (FaaSBatch's future-work extension).
    early_return: bool = False
    #: Tag BATCH_STARTED events/spans with this function id (FaaSBatch
    #: groups are per-function; the per-invocation policies leave it unset).
    batch_event_function_id: Optional[str] = None
    #: Observe the batch size in the ``scheduler.batch_size`` histogram
    #: (FaaSBatch records ``faasbatch.group_size`` at mapping time instead).
    record_batch_size_metric: bool = True


#: The plan shared by Vanilla, SFS and Kraken: serial in-container queue,
#: no multiplexer, straight cold start on a warm miss.
SERIAL_DISPATCH_PLAN = DispatchPlan()


def run_dispatch_pipeline(platform: "ServerlessPlatform",
                          invocations: List[Invocation],
                          plan: DispatchPlan,
                          function: Optional[FunctionSpec] = None):
    """Generator: drive *invocations* through the full dispatch path.

    Checks the warm pool the instant the batch is picked up (the
    prototype's handler threads all race through this check, so a burst
    observes an empty pool and mass-cold-starts), pays the platform's
    dispatch bookkeeping — and, on a miss, the container-launch decision —
    as host CPU work, obtains the container, then executes via
    :func:`execute_on_container`.

    Returns the number of invocations dispatched and completed through the
    container (0 when the cold start failed or nothing was accepted).
    """
    if function is None:
        function = invocations[0].function
    container = platform.try_acquire_warm(function)
    cold_start_ms = 0.0
    yield platform.dispatch_work(len(invocations))
    if container is not None and not container.is_warm:
        # A fault crashed the warm container while the batch was being
        # dispatched: the pool books the rejected release, and the batch
        # takes the miss path.
        platform.release_container(container)
        container = None
    if container is None:
        # The launch decision (docker-py API marshalling) is platform CPU
        # work; the provisioning itself is dockerd + kernel work contended
        # with everything running on the host.
        yield platform.launch_work()
        try:
            if plan.acquire_on_miss:
                container, cold_start_ms = \
                    yield from platform.acquire_container(
                        function,
                        concurrency_limit=plan.concurrency_limit,
                        with_multiplexer=plan.with_multiplexer)
            else:
                container, cold_start_ms = yield from platform.cold_start(
                    function,
                    concurrency_limit=plan.concurrency_limit,
                    with_multiplexer=plan.with_multiplexer)
        except ColdStartError as error:
            platform.fail_undispatched(list(invocations), error)
            return 0
    count = yield from execute_on_container(
        platform, container, invocations, cold_start_ms, plan)
    return count


def execute_on_container(platform: "ServerlessPlatform",
                         container: SimContainer,
                         invocations: List[Invocation],
                         cold_start_ms: float,
                         plan: DispatchPlan):
    """Generator: dispatch *invocations* to *container* and await them.

    Stamps dispatch (splitting scheduling vs. cold-start latency exactly
    as §IV prescribes), runs the batch, notes completions, and returns
    the container to the keep-alive pool.  Dispatch goes through
    :meth:`ServerlessPlatform.begin_dispatch`, so injected dispatch
    faults and resilience watchdogs apply uniformly to every policy.
    Returns the number of invocations that completed via the container.
    """
    invocations = platform.begin_dispatch(
        container, invocations, cold_start_ms)
    if not invocations:
        platform.release_container(container)
        return 0
    platform.note_batch_started(container, len(invocations),
                                plan.batch_event_function_id,
                                plan.record_batch_size_metric)
    if plan.early_return:
        # Future-work extension: each caller gets its response the
        # moment its own invocation finishes.
        processes = container.execute_invocations(invocations)
        for invocation, process in zip(invocations, processes):
            _respond_on_completion(platform, invocation, process)
        yield platform.env.all_of(processes)
    else:
        # Batch semantics shared by all published batch schemes (§III-C):
        # the response returns when the whole (sub-)batch has completed.
        yield container.execute_batch(invocations)
        now = platform.env.now
        for invocation in invocations:
            invocation.mark_responded(now)
            platform.note_completed(invocation)
    platform.release_container(container)
    return len(invocations)


def _respond_on_completion(platform: "ServerlessPlatform",
                           invocation: Invocation, process) -> None:
    """Arrange response + completion bookkeeping when *process* ends."""

    def on_done(_event) -> None:
        invocation.mark_responded(platform.env.now)
        platform.note_completed(invocation)

    assert process.callbacks is not None
    process.callbacks.append(on_done)


class Scheduler(abc.ABC):
    """Base class for scheduling policies."""

    #: Human-readable policy name (used in every report).
    name: str = "abstract"
    #: CPU discipline this policy's worker uses.
    cpu_discipline: CpuDiscipline = CpuDiscipline.FAIR_SHARE

    @abc.abstractmethod
    def start(self, platform: "ServerlessPlatform") -> None:
        """Spawn the policy's serving processes on *platform*."""
