"""Two-level max-min fair (water-filling) CPU engine on per-group clocks.

This is the substrate that makes the paper's latency effects emerge:

* The worker VM has ``cores`` physical cores.
* Every running computation is a :class:`CpuTask` with an amount of *work*
  in core-milliseconds.  A task is one thread, so it uses at most one core
  (the paper expands a batch into threads, §III-C).
* Tasks belong to a :class:`CpuGroup` (a container, or the host group for
  platform work).  A group can be capped (``cpuset_cpus`` / ``cpu_count`` in
  the paper's prototype).
* Capacity is divided by **two-level water-filling**: max-min fairness across
  groups (each group's demand is its task count, bounded by the group
  cap), then an equal split across the tasks inside each group.

This approximates Linux CFS with cgroup cpusets closely enough to reproduce
the paper's observations: e.g. when Vanilla launches hundreds of containers,
platform scheduling work and cold-start work contend with function execution
and *everything* slows down proportionally; whereas FaaSBatch's single
container receives the same aggregate core share as hundreds of Monopoly
containers would for the same work (Fig. 1's "Sharing ≈ Monopoly").

The model is work-conserving: as long as total demand >= capacity, exactly
``cores`` core-ms of work complete per millisecond.

Service clocks
--------------
Tasks of one group all run at one rate, so the engine keeps the
processor-sharing state per *group*, not per task (the textbook
formulation: a service clock per share class, a finish tag per task):

* ``group.served`` is the work delivered to each member since the group
  last became runnable.  It restarts at 0.0 on every empty → non-empty
  transition, so tags never lose precision to a large clock reading.
* A task's **finish tag** is ``work + served`` at submit and never changes;
  ``tag - served`` is what is left of it.  Tags sit in a per-group min-heap
  with the global submission rank as tie-break.
* **Settle** advances each runnable group's clock by ``rate * dt``.  The
  **finished scan** pops heap tops while the completion predicate holds (it
  is monotone in the tag, so the popped prefix is exactly the finished set)
  and fires them in submission order.  A wake-up settles and scans in one
  walk (``_settle_elapsed(scan=True)``).
* **Recompute and arm** (``_recompute_and_arm``) is one walk too: one
  :func:`repro.sim.engine.water_level` solve over the demands in creation
  order gives each stale group its rate (``full_rate`` when its whole demand
  is granted, an equal split of the level otherwise), and the same loop
  arms the minimum ``(top tag - served) / rate`` as the next wake-up.

Every event therefore costs O(runnable groups) + O(log tasks of one group)
where a per-task formulation pays O(running tasks): a reallocation on the
dense Vanilla minute sees 15.1 runnable groups and 391 tasks on average,
under FaaSBatch 32.0 groups.  At those sizes the constant factor per group
is the cost, not the O(groups) bound, so a reallocation walks them twice.

The kernel-event skeleton
-------------------------
Which kernel events the engine creates decides ``kernel_events``, which the
macro-benchmark pins as an integer, so these mechanisms are held fixed:

* **Coalesced reallocation.**  A submit that provably cannot complete
  anything (``_needs_scan`` is false: rates only fall on the submit path,
  so a task that survived the last scan cannot have finished until time is
  settled or a completion/cap-change/abort frees capacity) defers one
  reallocation to the end of the instant (``Environment.defer``); the K
  same-timestamp submits of a batch expansion share it.  Synchronous
  readers flush first; a full reallocation in the meantime supersedes the
  deferred one (``_flush_token``).
* **One wake-up timer.**  Every recompute cancels the armed ``Timeout`` and
  arms exactly one at the new horizon, never below the clock's resolution.
* **Armed-horizon scan elision.**  Rates are constant between armings, so
  until elapsed time comes within a slack of the armed minimum
  time-to-finish the finished scan cannot find anything and is skipped.
"""

from __future__ import annotations

import bisect
import math
from heapq import heappop, heappush
from operator import attrgetter
from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.units import TIME_EPSILON
from repro.sim.engine import CpuEngineBase, CpuGroup, CpuTask, water_level
from repro.sim.kernel import Environment, Event, Timeout


_FINE_CLOCK = 2.0 ** 21  # ms; below it four ulps of the clock < TIME_EPSILON

_by_demand = attrgetter("demand")
_by_seq = attrgetter("seq")  # global submission rank of a task


def _member_rate(group: CpuGroup, alloc: float) -> float:
    """A group's member rate: *alloc* split equally, at most one core.

    An uncapped group's demand is n exactly, and n / n == 1.0.
    """
    if alloc <= TIME_EPSILON:
        return 0.0
    split = alloc / group.size
    return 1.0 if 1.0 <= split else split


class FairShareCpu(CpuEngineBase):
    """The two-level processor-sharing CPU of one worker machine.

    :meth:`create_group` / :meth:`remove_group` manage container cgroups,
    :meth:`submit` runs work in one, and :meth:`utilization` /
    :meth:`busy_core_ms` feed the paper's CPU-cost figures (13c / 14c).
    """

    def __init__(self, env: Environment, cores: float) -> None:
        if cores <= 0:
            raise ValueError(f"cores must be > 0, got {cores}")
        super().__init__(env, float(cores))
        self._running = 0
        self._task_sequence = 0
        self._last_update = env.now
        self._wake_timer: Optional[Timeout] = None
        #: Runnable (non-empty) groups in creation order, creation ranks
        #: alongside for bisection — the only groups any pass visits
        #: (keep-alive containers leave thousands of empty ones behind).
        self._active: List[CpuGroup] = []
        self._active_seqs: List[int] = []
        #: True when a demand changed since the last rate recompute.
        self._stale = False
        #: True while a coalescing flush event is scheduled at `now`.
        self._flush_scheduled = False
        #: Invalidates in-flight flush events superseded by a full realloc.
        self._flush_token = 0
        #: True when the next submit must run the finished-task scan (work
        #: was settled, or rates may have risen since the last scan).
        self._needs_scan = True
        #: (time, min time-to-finish, min positive rate) as of the last
        #: arming; elides provably empty scans (see _complete_finished).
        self._armed_at = env.now
        self._armed_ttf = -math.inf
        self._armed_min_rate = math.inf

    # -- groups ----------------------------------------------------------------

    def _clamp_cap(self, cap: float) -> float:
        return min(cap, self.cores)

    def set_group_cap(self, name: str, cap: Optional[float]) -> None:
        """Re-cap *name* at runtime (the straggler-slowdown fault hook).

        Settles elapsed work at the old rates first, then reallocates, so a
        mid-flight cap change charges exactly the work done before it.
        """
        if cap is not None:
            if cap <= 0:
                raise ValueError(f"group cap must be > 0, got {cap}")
            cap = min(cap, self.cores)
        group = self.group(name)
        self._settle_elapsed()
        group.cap = cap
        self._refresh_demand(group)
        # Raising a cap can raise rates, so the next scan cannot be elided.
        self._reallocate_and_arm(self._complete_finished(), raises_rates=True)

    def abort_group_tasks(self, name: str) -> int:
        """Drop every runnable task of *name* without firing its done event.

        Used by container-crash teardown: the processes waiting on those
        events were interrupted (and detached from them), so the events must
        *not* fire — the work simply vanishes.  Returns the number dropped.
        """
        group = self.group(name)
        dropped = len(group.tasks)
        if not dropped:
            return 0
        self._settle_elapsed()
        self._running -= dropped
        group.tasks.clear()
        group.heap.clear()
        self._deactivate(group)
        # Freed capacity can raise surviving rates: keep the scan armed.
        self._reallocate_and_arm(self._complete_finished(), raises_rates=True)
        return dropped

    def runnable_group_count(self) -> int:
        return len(self._active)

    # -- work submission ---------------------------------------------------------

    def submit(self, work: float,
               group: str = CpuEngineBase.HOST_GROUP) -> Event:
        """Execute *work* core-ms as one thread in *group*; the event fires
        on completion.  Zero work completes after a zero-delay event.
        """
        self._validate_work(work)
        if work == 0.0:
            return self._completed_event()
        self._settle_elapsed()
        self._task_sequence += 1
        owner = self.group(group)
        task = CpuTask(owner, self.env.event(), self.env.now,
                       self._task_sequence)
        if not owner.tasks:
            # (Re)activation restarts the group's service clock.
            owner.served = owner.rate = 0.0
            pos = bisect.bisect_left(self._active_seqs, owner._seq)
            self._active_seqs.insert(pos, owner._seq)
            self._active.insert(pos, owner)
        owner.tasks[task] = None
        heappush(owner.heap, (work + owner.served, task.seq, task))
        self._running += 1
        self._refresh_demand(owner)
        if self._needs_scan or work <= TIME_EPSILON:
            # The scan may complete tasks (or this sub-epsilon one, which
            # the armed horizon does not cover): reallocate eagerly.
            self._reallocate_and_arm(
                self._complete_finished(force=work <= TIME_EPSILON))
        else:
            # Fast path: the scan is provably empty and rates only fall, so
            # defer one coalesced recompute to the end of this instant.
            self._schedule_flush()
        return task.done

    # -- accounting ----------------------------------------------------------------

    def busy_core_ms(self) -> float:
        """Total core-milliseconds of work completed so far."""
        self._settle_elapsed()
        return self._busy_core_ms

    def current_rate(self) -> float:
        """Aggregate core usage right now (cores being consumed)."""
        self._flush_if_pending()
        return sum((group.rate * len(group.tasks) for group in self._active),
                   0.0)

    # -- internals ----------------------------------------------------------------

    def _settle_elapsed(self, scan: bool = False) -> bool:
        """Advance every runnable group's clock to the current time.

        With *scan*, the same walk pops each group's finished heap prefix
        (the completion predicate is monotone in the tag) and fires what it
        popped in submission order; returns True if any fired.  Settling a
        settled clock leaves it bit for bit as it was.
        """
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt > 0:
            # Work was delivered: the next submit cannot skip the scan.
            self._needs_scan = True
        elif not scan:
            return False
        resolution = self._time_resolution() if scan else 0.0
        eps = TIME_EPSILON
        busy = self._busy_core_ms
        finished: List[CpuTask] = []
        for group in self._active:
            rate = group.rate
            step = rate * dt
            served = group.served + step
            group.served = served
            busy += step * group.size
            if scan:
                heap = group.heap
                while heap:
                    left = heap[0][0] - served
                    if left > eps and (rate <= 0.0
                                       or left / rate > resolution):
                        break
                    finished.append(heappop(heap)[2])
        self._busy_core_ms = busy
        if len(finished) > 1:
            finished.sort(key=_by_seq)
        for task in finished:
            group = task.group
            del group.tasks[task]
            self._running -= 1
            if not group.tasks:
                self._deactivate(group)
            else:
                self._refresh_demand(group)
            task.done.succeed(now - task.started_at)
        return bool(finished)

    def _refresh_demand(self, group: CpuGroup) -> None:
        """Recompute *group*'s demand after a membership or cap change."""
        self._stale = True
        group.size = n = len(group.tasks)
        total = float(n)  # one core per thread
        cap = group.cap
        group.demand = total if cap is None or cap >= total else cap
        group.full_rate = _member_rate(group, group.demand)

    def _deactivate(self, group: CpuGroup) -> None:
        """Drop the now-empty *group* from the runnable index."""
        self._stale = True
        pos = bisect.bisect_left(self._active_seqs, group._seq)
        del self._active_seqs[pos]
        del self._active[pos]

    def _time_resolution(self) -> float:
        """Smallest clock advance the engine will arm at the current time.

        Hours into a run a wake-up delay below one ulp of ``now`` would not
        advance time and the kernel would spin forever; a task whose
        time-to-finish is below this resolution counts as complete.
        """
        now = self.env.now
        if now < _FINE_CLOCK:
            return TIME_EPSILON
        return max(TIME_EPSILON, 4.0 * math.ulp(now))

    def _schedule_flush(self) -> None:
        """Arrange one reallocation at the end of the current instant."""
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        token = self._flush_token

        def flush() -> None:
            if token == self._flush_token:  # else a full realloc superseded it
                self._flush_now()
        self.env.defer(flush)

    def _flush_if_pending(self) -> None:
        """Recompute rates immediately for a synchronous observer."""
        if self._flush_scheduled:
            self._flush_now()

    def _flush_now(self) -> None:
        self._flush_token += 1
        self._flush_scheduled = False
        self._recompute_and_arm()

    def _reallocate_and_arm(self, finished: bool,
                            raises_rates: bool = False) -> None:
        """Recompute rates and arm the next wake-up after a finished scan.

        *finished* is the scan's result.  ``raises_rates`` marks triggers
        (cap raise, abort) after which task rates may *increase*, so the
        elided-scan invariant does not hold and the next submit must scan
        again.
        """
        self._flush_now()  # absorbs any pending coalesced flush
        # Completions free capacity (rates may rise): scan again next time.
        self._needs_scan = finished or raises_rates

    def _complete_finished(self, force: bool = False) -> bool:
        """Fire every finished task, in submission order; True if any.

        ``force`` disables the armed-horizon scan elision (needed when a
        task was added that the armed snapshot does not cover).
        """
        if not force:
            # Rates are constant between armings (every rate change re-arms),
            # so each time-to-finish shrinks exactly with elapsed time: until
            # the armed minimum is within ``slack`` of being reached the scan
            # is provably empty.  ``slack`` dominates both predicate
            # thresholds — the clock resolution and the epsilon-remaining
            # band (TIME_EPSILON / slowest rate wide in elapsed time) — plus
            # an absolute margin orders of magnitude above float drift.
            slack = max(self._time_resolution(),
                        TIME_EPSILON / self._armed_min_rate) + 1e-6
            if self.env.now - self._armed_at < self._armed_ttf - slack:
                return False
        return self._settle_elapsed(scan=True)

    def _recompute_and_arm(self) -> None:
        """Re-derive stale rates and arm one wake-up at the earliest finish.

        One walk over the runnable groups: when a demand changed since the
        last pass, each group's rate comes from the group-level water level
        (creation order: the float results are order-sensitive); in the
        same loop the minimum time-to-finish becomes the new horizon.
        """
        active = self._active
        stale = self._stale
        if stale:
            # No membership or cap change (a spurious wake-up) leaves the
            # demands, and so the rates, as they are: only the horizon.
            self._stale = False
            bound, level = water_level(
                self.cores, list(map(_by_demand, active)))
        horizon = min_rate = math.inf
        for group in active:
            if stale:
                group.rate = rate = (group.full_rate if group.demand <= bound
                                     else _member_rate(group, level))
            else:
                rate = group.rate
            if rate <= 0.0:
                continue
            if rate < min_rate:
                min_rate = rate
            ttf = (group.heap[0][0] - group.served) / rate
            if ttf < horizon:
                horizon = ttf
        self._armed_at = self.env.now
        self._armed_ttf = horizon
        self._armed_min_rate = min_rate
        if self._wake_timer is not None:
            self._wake_timer.cancel()  # a cancelled timer never fires
            self._wake_timer = None
        if math.isinf(horizon):
            if self._running:
                raise SimulationError(
                    "CPU starvation: runnable tasks but zero allocation")
            return
        # Never arm below the clock's resolution: a delay smaller than one
        # ulp of `now` would not advance time (see _time_resolution).
        timer = self.env.timeout(max(horizon, self._time_resolution()))
        timer._callbacks = self._on_wakeup  # fresh: no other waiter
        self._wake_timer = timer

    def _on_wakeup(self, _event: Event) -> None:
        """Settle and scan in one walk, then reallocate.

        The scan is never elided here, and need not be: where the armed
        horizon would call it provably empty it finds nothing.
        """
        self._wake_timer = None
        self._reallocate_and_arm(self._settle_elapsed(scan=True))
