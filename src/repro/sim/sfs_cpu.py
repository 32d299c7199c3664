"""SFS-style CPU scheduling discipline.

SFS (SC'22, cited as [23] in the FaaSBatch paper) is a user-space CPU
scheduler for serverless workers: every function invocation is pinned to a
per-core *channel* and served with **adaptive time slices** so that short
functions approximate shortest-job-first without knowing durations in
advance.  Long functions are demoted to a background FIFO that only runs when
no short work is pending — "SFS improves the performance of short functions
at the expense of increasing the execution time of long functions" (§IV).

Model implemented here (a faithful small-scale reconstruction):

* ``cores`` worker cores, each running at most one task at a time
  (no processor sharing — SFS deliberately avoids preemptive sharing).
* New tasks enter the **foreground** round-robin queue.  A task runs for one
  time slice; if it finishes within its slice it leaves; otherwise its
  cumulative service is charged and it is re-queued — to the foreground when
  still below ``promotion_threshold_ms`` of total service, otherwise to the
  **background** FIFO.
* Background tasks are only dispatched when the foreground queue is empty
  and then receive ``background_slice_factor`` × the foreground slice.
* The foreground slice adapts to the recent request inter-arrival time
  (EWMA), clamped to ``[min_slice_ms, max_slice_ms]`` — SFS's "dynamically
  perceiving IaT of requests and assigning an adaptive size of time slices".

The class implements the :class:`repro.sim.engine.CpuEngine` protocol
(``create_group``/``submit``/accounting, shared scaffolding from
:class:`repro.sim.engine.CpuEngineBase`) so a machine can be constructed
with either discipline.  Group caps are accepted but not enforced: SFS
schedules function *processes* onto cores directly, bypassing container
cgroup shares (matching its user-space design).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import Ewma
from repro.common.units import TIME_EPSILON, clamp
from repro.sim.engine import CpuEngineBase
from repro.sim.kernel import Environment, Event, Timeout
from repro.sim.primitives import Store


class SfsTask:
    """A task moving through the SFS foreground/background queues."""

    __slots__ = ("work_total", "remaining", "served", "done", "label",
                 "started_at", "arrived_at", "group_name", "aborted")

    def __init__(self, work: float, done: Event, label: str,
                 arrived_at: float, group_name: str) -> None:
        self.work_total = work
        self.remaining = work
        self.served = 0.0
        self.done = done
        self.label = label
        self.started_at: Optional[float] = None
        self.arrived_at = arrived_at
        self.group_name = group_name
        self.aborted = False

    def __repr__(self) -> str:
        return f"<SfsTask {self.label} remaining={self.remaining:.3f}>"


class SfsCpu(CpuEngineBase):
    """Worker CPU scheduled by the SFS discipline (see module docstring).

    Group caps are accepted but not enforced (SFS bypasses cgroup shares);
    ``create_group``/``remove_group``/lookup come from
    :class:`~repro.sim.engine.CpuEngineBase`.
    """

    def __init__(self, env: Environment, cores: int,
                 min_slice_ms: float = 1.0,
                 max_slice_ms: float = 50.0,
                 initial_slice_ms: float = 5.0,
                 promotion_threshold_ms: float = 100.0,
                 background_slice_factor: float = 10.0,
                 iat_alpha: float = 0.3,
                 coalesce: bool = True) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if min_slice_ms <= 0 or max_slice_ms < min_slice_ms:
            raise ValueError("invalid slice bounds")
        super().__init__(env, int(cores))
        #: Elide provably-unobservable kernel events (see _core_loop); the
        #: flag exists so the regression tests can run the uncoalesced
        #: discipline side by side and assert identical schedules.
        self._coalesce = coalesce
        self.min_slice_ms = min_slice_ms
        self.max_slice_ms = max_slice_ms
        self.promotion_threshold_ms = promotion_threshold_ms
        self.background_slice_factor = background_slice_factor
        self._slice = clamp(initial_slice_ms, min_slice_ms, max_slice_ms)
        self._iat = Ewma(alpha=iat_alpha)
        self._last_arrival: Optional[float] = None
        self._foreground: Deque[SfsTask] = deque()
        self._background: Deque[SfsTask] = deque()
        self._signal: Store[int] = Store(env)
        #: Wake-up signals whose task was aborted out of the queues.
        self._stale_signals = 0
        self._core_machines: List[_SfsCore] = [
            _SfsCore(self) for _ in range(self.cores)]

    def dismantle(self) -> None:
        """Forget the cores: each refers back here, and an idle one waits
        on the signal store through its callback."""
        super().dismantle()
        self._core_machines.clear()
        self._signal = None  # type: ignore[assignment]

    # -- CpuEngine interface ----------------------------------------------------

    def set_group_cap(self, name: str, cap: Optional[float]) -> None:
        """Record a new cap (accepted, not enforced — see module doc).

        SFS schedules function processes onto cores directly, so a cgroup
        cap change has no effect on its dispatch order; the interface exists
        so fault plans run unchanged under every CPU discipline.
        """
        if cap is not None and cap <= 0:
            raise ValueError(f"group cap must be > 0, got {cap}")
        self.group(name).cap = cap

    def abort_group_tasks(self, name: str) -> int:
        """Drop every task of *name* without firing its done event.

        Queued tasks are removed (their wake-up signals become stale and are
        swallowed by the core loops); a task currently running its slice is
        flagged and discarded when the slice ends.
        """
        if name not in self._groups:
            raise SimulationError(f"unknown CPU group {name!r}")
        dropped = 0
        for queue_ in (self._foreground, self._background):
            keep = [t for t in queue_ if t.group_name != name]
            removed = len(queue_) - len(keep)
            if removed:
                queue_.clear()
                queue_.extend(keep)
                self._stale_signals += removed
                dropped += removed
        for core in self._core_machines:
            task = core.task
            if (task is not None and task.group_name == name
                    and not task.aborted):
                task.aborted = True
                dropped += 1
        return dropped

    def submit(self, work: float, group: str = CpuEngineBase.HOST_GROUP,
               max_share: float = 1.0, label: str = "") -> Event:
        """Enqueue *work* core-ms; the returned event fires on completion."""
        self._validate_work(work)
        if group not in self._groups:
            raise SimulationError(f"unknown CPU group {group!r}")
        if work == 0.0:
            return self._completed_event()
        self._observe_arrival()
        self._task_sequence += 1
        task = SfsTask(work=work, done=self.env.event(),
                       label=label or f"sfs-task-{self._task_sequence}",
                       arrived_at=self.env.now, group_name=group)
        self._foreground.append(task)
        self._signal.put(1)
        return task.done

    @property
    def active_tasks(self) -> int:
        running = sum(1 for core in self._core_machines
                      if core.task is not None)
        return len(self._foreground) + len(self._background) + running

    def runnable_group_count(self) -> int:
        """Distinct groups with a queued or running task."""
        tasks = [*self._foreground, *self._background,
                 *(core.task for core in self._core_machines)]
        return len({task.group_name for task in tasks if task is not None})

    def busy_core_ms(self) -> float:
        """Completed core-ms (whole slices; running slices charge at end)."""
        return self._busy_core_ms

    def current_rate(self) -> float:
        """Cores currently executing a task."""
        return float(sum(1 for core in self._core_machines
                         if core.task is not None))

    @property
    def current_slice_ms(self) -> float:
        """The adaptive foreground time slice currently in force."""
        return self._slice

    # -- internals -----------------------------------------------------------

    def _observe_arrival(self) -> None:
        now = self.env.now
        if self._last_arrival is not None:
            self._iat.observe(max(now - self._last_arrival, 0.0))
            self._slice = clamp(self._iat.value,
                                self.min_slice_ms, self.max_slice_ms)
        self._last_arrival = now

    def _pick(self) -> tuple:
        """Pop the next task per discipline; returns (task, quantum)."""
        if self._foreground:
            task = self._foreground.popleft()
            quantum = self._slice
        elif self._background:
            task = self._background.popleft()
            quantum = self._slice * self.background_slice_factor
        elif self._stale_signals > 0:
            # The signalled task was aborted out of the queue; swallow.
            self._stale_signals -= 1
            return None, 0.0
        else:
            raise SimulationError("SFS signalled with no queued task")
        return task, min(quantum, task.remaining)

    def _merge_slices(self, task: SfsTask, quantum: float, fire: float,
                      horizon: float) -> Tuple[Optional[List[float]], float]:
        """Plan the run of back-to-back slices *task* gets from one timer.

        Returns ``(slices, fire_at)``: the per-slice charges (``None`` when
        only the first slice fits — the common contended case, spared the
        list allocation) and the absolute firing time of the single merged
        timer.  The plan extends beyond the first slice only while every
        additional slice boundary falls *strictly before* *horizon* — the
        next scheduled kernel event; the caller has already established
        that both queues are empty, no signals are in flight and no time
        hooks are installed.  Under those conditions the sequential
        discipline would provably run the same task for the same
        back-to-back slices with nothing able to observe (or perturb) the
        intermediate boundaries, so merging them into one timer elides
        their events without changing any slice boundary a task observes.
        Boundary times accumulate sequentially (``fire += slice``), exactly
        the float chain the per-slice timers would have produced.
        """
        slices = [quantum]
        remaining = task.remaining - quantum
        served = task.served + quantum
        slice_ms = self._slice
        bg_quantum = slice_ms * self.background_slice_factor
        promotion = self.promotion_threshold_ms
        while True:
            nxt = bg_quantum if served >= promotion else slice_ms
            if remaining < nxt:
                nxt = remaining
            boundary = fire + nxt
            if boundary >= horizon:
                break
            slices.append(nxt)
            fire = boundary
            remaining -= nxt
            served += nxt
            if remaining <= TIME_EPSILON:
                break
        if len(slices) == 1:
            return None, fire
        return slices, fire


class _SfsCore:
    """One worker core as an event-callback state machine.

    Historically each core was a generator process (``yield signal.get()``
    / ``yield timer``); with millions of slice events per run the generator
    machinery (send/yield, Process bookkeeping) dominated the SFS bench
    cell.  The state machine drives the *same* events — one Store ``get``
    per idle wait, one (merged) timer per slice run, the same pick order,
    the same signal hand-off — by attaching its methods directly as the
    events' callbacks, so the observable schedule is bit-identical while
    each slice costs one callback invocation instead of a generator resume.

    Each cycle: ``_on_signal`` pops the signalled task and arms the slice
    timer; ``_on_timer`` charges the merged slices and either completes the
    task, re-queues it (taking the next task directly when the wake-up
    signal would be the sole event at this instant — order-preserving,
    since the elided wake event would have been the next event processed
    and core identity is not observable), or goes back to waiting.
    """

    __slots__ = ("cpu", "task", "quantum", "slices", "timer")

    def __init__(self, cpu: "SfsCpu") -> None:
        self.cpu = cpu
        self.task: Optional[SfsTask] = None
        self.quantum = 0.0
        self.slices: Optional[List[float]] = None
        self.timer: Optional[Timeout] = None
        self._await_signal()

    def _await_signal(self) -> None:
        event = self.cpu._signal.get()
        # Fresh get events have no waiters; attach the bare callback.
        event._callbacks = self._on_signal

    def _on_signal(self, _event: Event) -> None:
        task, quantum = self.cpu._pick()
        if task is None:
            self._await_signal()
            return
        self.task = task
        self.quantum = quantum
        self._arm()

    def _arm(self) -> None:
        """Arm one timer covering one or more merged slices of the task.

        The merge gate is inlined (conservative peek: treating a
        tombstone-only immediate deque as pending work only skips an
        elision, never changes the schedule), and the timer re-arm inlines
        ``Timeout.reset`` minus its guards — this core owns the timer, it
        is fully processed, never cancelled, and fires in the future.
        """
        cpu = self.cpu
        env = cpu.env
        task = self.task
        quantum = self.quantum
        now = env._now
        if task.started_at is None:
            task.started_at = now
        fire = now + quantum
        slices = None
        if (cpu._coalesce
                and not cpu._foreground and not cpu._background
                and not cpu._stale_signals and not cpu._signal._items
                and not env._time_hooks
                and not env._urgent and not env._immediate
                and task.remaining - quantum > TIME_EPSILON):
            horizon = env._future.min_when()
            if fire < horizon:
                slices, fire = cpu._merge_slices(task, quantum, fire, horizon)
        self.slices = slices
        timer = self.timer
        if timer is not None and timer._callbacks is None:
            timer.delay = fire - now
            if fire > now:
                env._future.push(fire, env._sequence, timer)
                env._sequence += 1
            else:
                env._immediate.append(timer)
        else:
            timer = env.timeout_at(fire)
            self.timer = timer
        timer._callbacks = self._on_timer

    def _on_timer(self, _event: Event) -> None:
        cpu = self.cpu
        env = cpu.env
        task = self.task
        slices = self.slices
        if slices is None:
            # Single slice (the common contended case): charge directly.
            charge = self.quantum
            task.remaining -= charge
            task.served += charge
            cpu._busy_core_ms += charge
        else:
            # Merged run: charge sequentially, preserving the float chain.
            busy = cpu._busy_core_ms
            for charge in slices:
                task.remaining -= charge
                task.served += charge
                busy += charge
            cpu._busy_core_ms = busy
        if task.aborted:
            # Crashed mid-slice: discard without completing.
            self.task = None
            self._await_signal()
            return
        if task.remaining <= TIME_EPSILON:
            task.done.succeed(env._now - task.arrived_at)
            self.task = None
            self._await_signal()
            return
        foreground = cpu._foreground
        if task.served >= cpu.promotion_threshold_ms:
            cpu._background.append(task)
        else:
            foreground.append(task)
        if (cpu._coalesce and not env._urgent and not env._immediate
                and env._future.min_when() > env._now):
            # The wake-up signal would be the sole event at this instant:
            # elide the round-trip and pick the next task directly (inline
            # _pick; a queue is non-empty — the task was just re-queued —
            # and the conservative peek is order-preserving as in _arm).
            if foreground:
                task = foreground.popleft()
                quantum = cpu._slice
            else:
                task = cpu._background.popleft()
                quantum = cpu._slice * cpu.background_slice_factor
            remaining = task.remaining
            self.task = task
            self.quantum = quantum if quantum < remaining else remaining
            self._arm()
            return
        self.task = None
        cpu._signal.put(1)
        self._await_signal()
