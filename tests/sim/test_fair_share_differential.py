"""Differential properties: the clocked engine vs a naive per-task model.

:class:`NaiveCpu` below is the fair-share discipline written the obvious
way — on every submit, cap change, abort and wake-up it settles every task,
re-waterfills every group, splits each group's allocation equally among
its tasks, and scans every task for completion.  It shares no code with the engine (it carries its own
progressive-filling loop), never defers, never elides a scan, and leaves
superseded timers to fire as no-ops.  :class:`FairShareCpu` must complete
the same tasks in the same order at the same instants (1e-9 relative; the
two accumulate floats in different orders) for any sequence of operations.

Work and caps are drawn from a coarse grid, so completion instants
either tie exactly or lie far apart: two completions within 1e-9 ms of each
other are legitimately order-ambiguous.  The driver's time advances are
multiples of different square roots, incommensurate with that grid and with
each other, so that no operation lands on the very instant of a completion:
which of the two runs first is then decided by event-creation rank, and
there the models legitimately differ (the engine arms its timer once, at the
end of the instant; the naive model at every submit).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import TIME_EPSILON
from repro.sim.fair_share import FairShareCpu
from repro.sim.kernel import Environment

REL_TOL = 1e-9


def naive_waterfill(capacity, demands):
    allocation = [0.0] * len(demands)
    active = [i for i, demand in enumerate(demands) if demand > 0]
    while active and capacity > TIME_EPSILON:
        share = capacity / len(active)
        bounded = [i for i in active if demands[i] <= share]
        for i in bounded or active:  # grant the satisfiable, else split
            allocation[i] = demands[i] if bounded else share
            capacity -= allocation[i]
        active = [i for i in active if i not in bounded] if bounded else []
    return allocation


class NaiveCpu:
    """Settle every task, re-waterfill everything, scan everything."""

    def __init__(self, env, cores):
        self.env, self.cores = env, float(cores)
        self.caps = {"host": math.inf}  # creation order
        self.tasks = []  # submission order
        self.last, self.version, self.busy = env.now, 0, 0.0

    def create_group(self, name, cap):
        self.caps[name] = math.inf if cap is None else min(cap, self.cores)

    def remove_group(self, name):
        del self.caps[name]

    def set_group_cap(self, name, cap):
        self.create_group(name, cap)
        self._reallocate()

    def abort_group_tasks(self, name):
        self._settle()  # before the tasks vanish: they ran until now
        self.tasks = [t for t in self.tasks if t.group != name]
        self._reallocate()

    def submit(self, work, group="host"):
        task = SimpleNamespace(left=work, rate=0.0, group=group,
                               done=self.env.event(), since=self.env.now)
        self.tasks.append(task)
        self._reallocate()
        return task.done

    def busy_core_ms(self):
        self._settle()
        return self.busy

    def _settle(self):
        dt, self.last = self.env.now - self.last, self.env.now
        for task in self.tasks:
            task.left -= task.rate * dt
            self.busy += task.rate * dt

    def _reallocate(self, version=None):
        if version is not None and version != self.version:
            return  # a superseded timer: fires as a no-op
        self._settle()
        now, resolution = self.env.now, max(TIME_EPSILON, 4.0 * math.ulp(self.env.now))
        for task in list(self.tasks):
            if task.left <= TIME_EPSILON or (
                    task.rate > 0 and task.left / task.rate <= resolution):
                self.tasks.remove(task)
                task.done.succeed(now - task.since)
        members = {name: [t for t in self.tasks if t.group == name]
                   for name in self.caps}
        runnable = [name for name in self.caps if members[name]]
        demands = [min(float(len(members[name])), self.caps[name])
                   for name in runnable]
        for name, alloc in zip(runnable,
                               naive_waterfill(self.cores, demands)):
            threads = [1.0] * len(members[name])  # a task uses one core
            for task, rate in zip(members[name],
                                  naive_waterfill(alloc, threads)):
                task.rate = rate
        self.version = version = self.version + 1
        horizons = [t.left / t.rate for t in self.tasks if t.rate > 0]
        if horizons:
            timer = self.env.timeout(max(min(horizons), resolution))
            timer.callbacks.append(lambda _event: self._reallocate(version))


# -- operation sequences ---------------------------------------------------------

GROUPS = ("host", "capped", "open", "churn")
WORKS = st.sampled_from([1e-10, 0.25, 0.5, 1.0, 2.0, 3.0, 7.5, 20.0])
CAPS = st.sampled_from([None, 0.5, 1.0, 2.0, 3.0])
OPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(GROUPS), WORKS),
    st.tuples(st.just("burst"), st.sampled_from(GROUPS), WORKS,
              st.integers(2, 6)),
    st.tuples(st.just("advance"), st.sampled_from(
        [math.sqrt(2) / 8, math.sqrt(3) / 2, math.sqrt(5), 3 * math.sqrt(7)])),
    st.tuples(st.just("cap"), st.sampled_from(GROUPS[1:]), CAPS),
    st.tuples(st.just("abort"), st.sampled_from(GROUPS)),
    st.tuples(st.just("recreate"), CAPS),
)


def replay(make_cpu, cores, ops, until=None, before_abort=None, works=None):
    """Run *ops* against a fresh engine, to quiescence or to *until*.

    Returns the engine and its completions as ``(label, instant, work)``.
    ``before_abort(cpu, group)`` runs right before tasks are dropped, so a
    caller can account for work that is about to vanish.  *works*, when
    given, receives each task's work under its done event.
    """
    env = Environment()
    cpu = make_cpu(env, cores)
    cpu.create_group("capped", cap=1.0)
    cpu.create_group("open", cap=None)
    cpu.create_group("churn", cap=2.0)
    completions = []
    counter = iter(range(10 ** 6))

    def submit(group, work):
        label = f"t{next(counter)}"
        done = cpu.submit(work, group=group)
        if works is not None:
            works[done] = work
        done.callbacks.append(
            lambda _event: completions.append((label, env.now, work)))

    def abort(group):
        if before_abort is not None:
            before_abort(cpu, group)
        cpu.abort_group_tasks(group)

    def driver():
        for op in ops:
            kind = op[0]
            if kind == "submit":
                submit(*op[1:])
            elif kind == "burst":
                for _ in range(op[3]):
                    submit(op[1], op[2])
            elif kind == "advance":
                yield env.timeout(op[1])
            elif kind == "cap":
                cpu.set_group_cap(op[1], op[2])
            elif kind == "abort":
                abort(op[1])
            else:  # empty the group, remove it, re-create it under its name
                abort("churn")
                cpu.remove_group("churn")
                cpu.create_group("churn", op[1])

    env.process(driver())
    env.run(until=until)
    return cpu, completions


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=TIME_EPSILON)


@settings(max_examples=500, deadline=None)
@given(cores=st.sampled_from([1, 2, 4]),
       ops=st.lists(OPS, min_size=1, max_size=40))
def test_same_completions_as_the_naive_model(cores, ops):
    cpu, got = replay(FairShareCpu, cores, ops)
    naive, want = replay(NaiveCpu, cores, ops)
    assert [label for label, _, _ in got] == [label for label, _, _ in want]
    for (label, at, _), (_, expected, _) in zip(got, want):
        assert close(at, expected), (label, at, expected)
    assert close(cpu.busy_core_ms(), naive.busy_core_ms())


def delivered(cpu, name, works):
    """Work *name*'s in-flight tasks have received by now: the group's
    clock as of the last settle, advanced at its rate since (reading the
    engine settles nothing)."""
    group = cpu.group(name)
    served = group.served + group.rate * (cpu.env.now - cpu._last_update)
    return sum(works[task.done] - (tag - served)
               for tag, _seq, task in group.heap)


@settings(max_examples=200, deadline=None)
@given(cores=st.sampled_from([1, 2, 4]),
       ops=st.lists(OPS, min_size=1, max_size=40),
       until=st.sampled_from([0.5, 3.0, 12.0, 40.0, None]))
def test_work_is_conserved(cores, ops, until):
    """busy_core_ms == completed work + what in-flight tasks received.

    (Plus what aborted tasks had received when they were dropped.)  Checked
    mid-run as well as at quiescence.
    """
    lost, works = [], {}

    def before_abort(cpu, name):
        lost.append(delivered(cpu, name, works))

    cpu, completions = replay(FairShareCpu, cores, ops, until=until,
                              before_abort=before_abort, works=works)
    busy = cpu.busy_core_ms()
    in_flight = sum(delivered(cpu, name, works) for name in GROUPS)
    completed = sum(work for _, _, work in completions)
    # A task completes with up to TIME_EPSILON of its work undelivered (a
    # sub-epsilon task with all of it), hence the absolute allowance.
    assert math.isclose(busy, completed + in_flight + sum(lost),
                        rel_tol=REL_TOL,
                        abs_tol=TIME_EPSILON * (1 + len(completions)))
    if until is None:
        assert cpu.runnable_group_count() == 0 and in_flight == 0.0


def test_clock_restarts_when_a_group_becomes_runnable_again():
    env = Environment()
    cpu = FairShareCpu(env, cores=2)
    group = cpu.create_group("g", cap=1.0)
    cpu.submit(3.0, group="g")
    cpu.submit(5.0, group="g")
    env.run()
    assert env.now == 8.0 and not group.tasks
    assert group.served == 5.0  # both ran at 0.5 until t=6, then 1.0
    cpu.submit(0.1 + 0.2, group="g")
    # A fresh clock: the tag is the work itself, bit for bit, where adding
    # it to the old reading would have rounded it.
    assert group.served == 0.0
    assert group.heap[0][0] == 0.1 + 0.2 != (5.0 + (0.1 + 0.2)) - 5.0
    env.run()
    assert env.now == 8.0 + (0.1 + 0.2)

