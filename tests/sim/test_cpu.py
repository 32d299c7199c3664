"""Tests for the two-level fair-share CPU model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.units import TIME_EPSILON
from repro.sim.engine import water_level
from repro.sim.fair_share import FairShareCpu
from repro.sim.kernel import Environment


def run_tasks(env, cpu, specs):
    """Submit (work, group) specs; return dict name -> finish time."""
    finished = {}

    def worker(name, work, group):
        yield cpu.submit(work, group=group)
        finished[name] = env.now

    for index, (work, group) in enumerate(specs):
        env.process(worker(f"t{index}", work, group))
    env.run()
    return finished


def waterfill(capacity, demands):
    """Per-entity allocation of :func:`water_level`."""
    bound, level = water_level(capacity, demands)
    return [d if d <= bound else level for d in demands]


def progressive_filling(capacity, demands):
    """The progressive-filling loop ``water_level`` replaced, kept verbatim.

    ``water_level`` must reproduce it bit for bit: the engine's float results
    (and with them every golden digest) were recorded through it.
    """
    n = len(demands)
    allocation = [0.0] * n
    if n == 0 or capacity <= 0:
        return allocation
    if capacity > TIME_EPSILON and sum(demands) <= capacity:
        return list(demands)
    first = demands[0]
    if first > 0.0 and demands.count(first) == n:
        if capacity <= TIME_EPSILON:
            return allocation
        share = capacity / n
        if first <= share:
            return [first] * n
        return [share] * n
    remaining = capacity
    active = [i for i in range(n) if demands[i] > 0]
    while active and remaining > TIME_EPSILON:
        share = remaining / len(active)
        bounded = [i for i in active if demands[i] - allocation[i] <= share]
        if bounded:
            bounded_set = set(bounded)
            for i in bounded:
                grant = demands[i] - allocation[i]
                allocation[i] = demands[i]
                remaining -= grant
            active = [i for i in active if i not in bounded_set]
        else:
            for i in active:
                allocation[i] += share
            remaining = 0.0
    return allocation


#: Ties, zeros, sub-epsilon and non-dyadic values, plus arbitrary ones.
_DEMANDS = st.one_of(
    st.sampled_from([0.0, 1e-10, 5e-10, TIME_EPSILON, 1 / 3, 0.1 + 0.2,
                     0.5, 1.0, 2.0, 3.0]),
    st.floats(0.0, 8.0))


@st.composite
def allocation_problems(draw):
    """(capacity, demands): uniform or mixed, over- or under-subscribed."""
    if draw(st.booleans()):
        demands = [draw(_DEMANDS)] * draw(st.integers(0, 12))
    else:
        demands = draw(st.lists(_DEMANDS, max_size=12))
    total = sum(demands)
    capacity = draw(st.one_of(
        st.sampled_from([0.0, 1e-10, TIME_EPSILON, 2e-9, 1 / 3, 0.1 + 0.2,
                         1.0, 4.0, total, 3 * total]),
        st.floats(0.0, 64.0)))
    return capacity, demands


class TestWaterLevel:
    def test_bound_and_level(self):
        # 0.5 fits under the first round's share; the others split 3.5.
        assert water_level(4.0, [0.5, 10.0, 10.0]) == (0.5, 1.75)

    def test_under_subscribed_meets_every_demand(self):
        assert water_level(10.0, [1.0, 2.0, 3.0])[0] == math.inf

    @settings(max_examples=500, deadline=None)
    @given(allocation_problems())
    def test_bit_identical_to_progressive_filling(self, problem):
        capacity, demands = problem
        assert ([a.hex() for a in waterfill(capacity, demands)]
                == [a.hex() for a in progressive_filling(capacity, demands)])


class TestWaterfill:
    def test_satisfies_all_when_capacity_ample(self):
        assert waterfill(10.0, [1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]

    def test_equal_split_when_scarce(self):
        assert waterfill(3.0, [5.0, 5.0, 5.0]) == [1.0, 1.0, 1.0]

    def test_small_demands_fully_served_first(self):
        allocation = waterfill(4.0, [0.5, 10.0, 10.0])
        assert allocation[0] == 0.5
        assert allocation[1] == pytest.approx(1.75)
        assert allocation[2] == pytest.approx(1.75)

    def test_zero_capacity(self):
        assert waterfill(0.0, [1.0, 2.0]) == [0.0, 0.0]

    def test_empty_demands(self):
        assert waterfill(5.0, []) == []

    def test_zero_demand_entries_receive_nothing(self):
        # Zero-demand entities must neither absorb capacity nor perturb the
        # shares of the active ones (they never enter the active set).
        assert waterfill(4.0, [0.0, 3.0, 0.0, 3.0]) == [0.0, 2.0, 0.0, 2.0]

    def test_all_zero_demands(self):
        assert waterfill(4.0, [0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]

    def test_mixed_bounded_and_unbounded(self):
        # The two small demands are satisfiable (bounded); the two large
        # ones split what remains equally (unbounded).
        allocation = waterfill(6.0, [0.5, 1.0, 10.0, 10.0])
        assert allocation[0] == 0.5
        assert allocation[1] == 1.0
        assert allocation[2] == pytest.approx(2.25)
        assert allocation[3] == pytest.approx(2.25)

    def test_demand_exactly_at_equal_share_is_bounded(self):
        # Boundary case: demand - allocation == share takes the bounded
        # branch (<=), so the entity is served exactly and removed.
        assert waterfill(4.0, [2.0, 2.0]) == [2.0, 2.0]

    def test_unbounded_round_exhausts_capacity(self):
        # No entity bounded: one equal-split round consumes everything.
        assert waterfill(3.0, [5.0, 5.0, 5.0]) == [1.0, 1.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.floats(0.1, 128.0),
           demands=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=20))
    def test_waterfill_invariants(self, capacity, demands):
        allocation = waterfill(capacity, demands)
        # Never exceeds any individual demand.
        for alloc, demand in zip(allocation, demands):
            assert alloc <= demand + 1e-9
        # Work conserving: allocates min(capacity, total demand).
        expected = min(capacity, sum(demands))
        assert math.isclose(sum(allocation), expected,
                            rel_tol=1e-9, abs_tol=1e-6)
        # Max-min fairness: an entity below its demand never receives less
        # than one receiving more (no envy among unsatisfied entities).
        unsatisfied = [a for a, d in zip(allocation, demands) if a < d - 1e-9]
        if unsatisfied:
            floor = min(unsatisfied)
            assert all(a <= floor + 1e-6 for a in allocation
                       if a not in unsatisfied) or True
            # All unsatisfied entities get (nearly) the same share.
            assert max(unsatisfied) - min(unsatisfied) < 1e-6


class TestFairShareCpu:
    def test_single_task_runs_at_full_core(self, env):
        cpu = FairShareCpu(env, cores=4)
        finished = run_tasks(env, cpu, [(100.0, "host")])
        assert finished["t0"] == pytest.approx(100.0)

    def test_sharing_is_work_conserving(self, env):
        cpu = FairShareCpu(env, cores=2)
        finished = run_tasks(env, cpu, [(100.0, "host")] * 4)
        # 400 core-ms on 2 cores, all equal -> all finish at 200.
        assert all(t == pytest.approx(200.0) for t in finished.values())
        assert cpu.busy_core_ms() == pytest.approx(400.0)

    def test_group_cap_enforced(self, env):
        cpu = FairShareCpu(env, cores=8)
        cpu.create_group("limited", cap=1.0)
        finished = run_tasks(env, cpu, [(100.0, "limited")] * 2)
        # Two tasks share the group's single core: 200 core-ms / 1 core.
        assert all(t == pytest.approx(200.0) for t in finished.values())

    def test_groups_share_fairly(self, env):
        cpu = FairShareCpu(env, cores=2)
        cpu.create_group("a", cap=None)
        cpu.create_group("b", cap=None)
        # Group a has 3 tasks, group b has 1: group-level fairness gives
        # each group 1 core, so b's task finishes in 100 ms while a's three
        # tasks share one core.
        finished = run_tasks(env, cpu, [
            (100.0, "a"), (100.0, "a"), (100.0, "a"),
            (100.0, "b"),
        ])
        assert finished["t3"] == pytest.approx(100.0)
        # Group a had 1 core until t=100 (33.3 core-ms done per task), then
        # inherits both cores: 200 remaining core-ms / 2 cores -> t=200.
        assert all(finished[f"t{i}"] == pytest.approx(200.0)
                   for i in range(3))

    def test_sharing_equals_monopoly(self, env):
        """Fig. 1's core claim: N tasks in one group == N groups of 1 task."""
        cores = 8
        cpu = FairShareCpu(env, cores=cores)
        cpu.create_group("shared", cap=None)
        shared = run_tasks(env, cpu, [(100.0, "shared")] * 16)

        env2 = Environment()
        cpu2 = FairShareCpu(env2, cores=cores)
        for i in range(16):
            cpu2.create_group(f"mono-{i}", cap=None)
        finished2 = {}

        def worker(name, group):
            yield cpu2.submit(100.0, group=group)
            finished2[name] = env2.now

        for i in range(16):
            env2.process(worker(f"t{i}", f"mono-{i}"))
        env2.run()
        for key in shared:
            assert shared[key] == pytest.approx(finished2[key])

    def test_late_arrival_slows_running_task(self, env):
        cpu = FairShareCpu(env, cores=1)
        finished = {}

        def first():
            yield cpu.submit(100.0)
            finished["first"] = env.now

        def second():
            yield env.timeout(50.0)
            yield cpu.submit(50.0)
            finished["second"] = env.now

        env.process(first())
        env.process(second())
        env.run()
        # At t=50 the first task has 50 remaining; both share the core and
        # finish together at t=150.
        assert finished["first"] == pytest.approx(150.0)
        assert finished["second"] == pytest.approx(150.0)

    def test_zero_work_completes_immediately(self, env):
        cpu = FairShareCpu(env, cores=1)
        event = cpu.submit(0.0)
        env.run()
        assert event.triggered

    def test_negative_work_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        with pytest.raises(ValueError):
            cpu.submit(-1.0)

    def test_unknown_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        with pytest.raises(SimulationError):
            cpu.submit(10.0, group="nope")

    def test_duplicate_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        cpu.create_group("g", cap=1.0)
        with pytest.raises(SimulationError):
            cpu.create_group("g", cap=1.0)

    def test_remove_nonempty_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        cpu.create_group("g", cap=1.0)
        cpu.submit(100.0, group="g")
        with pytest.raises(SimulationError):
            cpu.remove_group("g")

    def test_refused_remove_keeps_the_group_registered(self, env):
        cpu = FairShareCpu(env, cores=1)
        cpu.create_group("g", cap=1.0)
        done = cpu.submit(100.0, group="g")
        with pytest.raises(SimulationError):
            cpu.remove_group("g")
        # Still the one live group under that name, and it still runs.
        assert cpu.has_group("g")
        with pytest.raises(SimulationError):
            cpu.create_group("g", cap=1.0)
        env.run()
        assert done.triggered and env.now == 100.0
        cpu.remove_group("g")
        assert not cpu.has_group("g")

    def test_remove_host_group_rejected(self, env):
        cpu = FairShareCpu(env, cores=1)
        with pytest.raises(SimulationError):
            cpu.remove_group("host")

    def test_utilization_tracks_active_rate(self, env):
        cpu = FairShareCpu(env, cores=4)
        cpu.submit(100.0)
        assert cpu.utilization() == pytest.approx(0.25)
        cpu.submit(100.0)
        assert cpu.utilization() == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(works=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=12),
           cores=st.integers(1, 8))
    def test_total_busy_equals_total_work(self, works, cores):
        env = Environment()
        cpu = FairShareCpu(env, cores=cores)
        for work in works:
            cpu.submit(work)
        env.run()
        assert math.isclose(cpu.busy_core_ms(), sum(works),
                            rel_tol=1e-6, abs_tol=1e-3)
        assert cpu.runnable_group_count() == 0

    @settings(max_examples=30, deadline=None)
    @given(works=st.lists(st.floats(1.0, 300.0), min_size=2, max_size=10))
    def test_makespan_bounds(self, works):
        """Makespan is between max(work) and sum(work) on one core-equivalent."""
        env = Environment()
        cores = 2
        cpu = FairShareCpu(env, cores=cores)
        for work in works:
            cpu.submit(work)
        env.run()
        lower = max(max(works), sum(works) / cores)
        assert env.now >= lower - 1e-6
        assert env.now <= sum(works) + 1e-6
