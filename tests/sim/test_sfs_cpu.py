"""Tests for the SFS CPU scheduling discipline."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.sfs_cpu import SfsCpu


def submit_and_run(env, cpu, specs):
    """Submit (label, work, at_ms) specs; return label -> completion time."""
    finished = {}

    def worker(label, work, at_ms):
        if at_ms > 0:
            yield env.timeout(at_ms)
        yield cpu.submit(work)
        finished[label] = env.now

    for label, work, at_ms in specs:
        env.process(worker(label, work, at_ms))
    env.run()
    return finished


class TestBasics:
    def test_single_task_runs_to_completion(self, env):
        cpu = SfsCpu(env, cores=1)
        finished = submit_and_run(env, cpu, [("a", 20.0, 0.0)])
        assert finished["a"] == pytest.approx(20.0)

    def test_zero_work_completes_immediately(self, env):
        cpu = SfsCpu(env, cores=1)
        event = cpu.submit(0.0)
        env.run()
        assert event.triggered

    def test_negative_work_rejected(self, env):
        cpu = SfsCpu(env, cores=1)
        with pytest.raises(ValueError):
            cpu.submit(-5.0)

    def test_unknown_group_rejected(self, env):
        cpu = SfsCpu(env, cores=1)
        with pytest.raises(SimulationError):
            cpu.submit(5.0, group="missing")

    def test_groups_tracked_but_not_enforced(self, env):
        cpu = SfsCpu(env, cores=1)
        cpu.create_group("g", cap=0.5)
        finished = submit_and_run(env, cpu, [("a", 20.0, 0.0)])
        # The cap is NOT enforced (SFS schedules processes directly).
        assert finished["a"] == pytest.approx(20.0)

    def test_busy_accounting(self, env):
        cpu = SfsCpu(env, cores=2)
        submit_and_run(env, cpu, [("a", 30.0, 0.0), ("b", 50.0, 0.0)])
        assert cpu.busy_core_ms() == pytest.approx(80.0)

    def test_runnable_group_count_counts_queued_and_running_groups(
            self, env):
        cpu = SfsCpu(env, cores=2)
        cpu.create_group("g1", cap=None)
        cpu.create_group("g2", cap=None)
        for group in ("g1", "g1", "g2"):
            cpu.submit(40.0, group=group)
        assert cpu.runnable_group_count() == 2  # all three queued
        env.run(until=1.0)  # two on cores, one queued
        assert cpu.runnable_group_count() == 2
        cpu.abort_group_tasks("g2")
        env.run(until=200.0)
        assert cpu.runnable_group_count() == 0


class TestDiscipline:
    def test_short_task_preempts_long_via_slicing(self, env):
        """A short task arriving behind a long one finishes much earlier
        than run-to-completion FIFO would allow."""
        cpu = SfsCpu(env, cores=1, initial_slice_ms=5.0,
                     min_slice_ms=5.0, max_slice_ms=5.0)
        finished = submit_and_run(env, cpu, [
            ("long", 500.0, 0.0),
            ("short", 5.0, 1.0),
        ])
        # FIFO would finish "short" at ~505; slicing interleaves it early.
        assert finished["short"] < 50.0
        assert finished["long"] > finished["short"]

    def test_long_tasks_demoted_to_background(self, env):
        """Once a task exceeds the promotion threshold it only runs when
        the foreground is empty, favouring a stream of short tasks."""
        cpu = SfsCpu(env, cores=1, initial_slice_ms=10.0,
                     min_slice_ms=10.0, max_slice_ms=10.0,
                     promotion_threshold_ms=50.0,
                     background_slice_factor=2.0)
        specs = [("long", 400.0, 0.0)]
        specs += [(f"short{i}", 8.0, 60.0 + 30.0 * i) for i in range(8)]
        finished = submit_and_run(env, cpu, specs)
        for i in range(8):
            # Every short task completes shortly after its arrival even
            # though the long task still has hundreds of ms of work left.
            arrival = 60.0 + 30.0 * i
            assert finished[f"short{i}"] <= arrival + 30.0
        assert finished["long"] == max(finished.values())

    def test_background_slice_is_longer(self, env):
        cpu = SfsCpu(env, cores=1, initial_slice_ms=10.0,
                     min_slice_ms=10.0, max_slice_ms=10.0,
                     promotion_threshold_ms=20.0,
                     background_slice_factor=10.0)
        finished = submit_and_run(env, cpu, [("solo", 200.0, 0.0)])
        # Demotion must not prevent completion.
        assert finished["solo"] == pytest.approx(200.0)

    def test_adaptive_slice_follows_interarrival(self, env):
        cpu = SfsCpu(env, cores=1, initial_slice_ms=5.0,
                     min_slice_ms=1.0, max_slice_ms=50.0)
        waited = []

        def arrivals():
            for _ in range(5):
                yield env.timeout(30.0)
                cpu.submit(1.0)
            yield env.timeout(30.0)
            cpu.submit(1000.0)
            yield env.timeout(0.0)
            start = env.now
            yield cpu.submit(1.0)
            waited.append(env.now - start - 1.0)

        env.process(arrivals())
        env.run()
        # Arrivals every 30 ms pull the slice from 5 ms towards 30: a short
        # task queued behind a long one waits out one such slice.
        assert 10.0 <= waited[0] <= 30.0

    def test_multi_core_parallelism(self, env):
        cpu = SfsCpu(env, cores=4)
        finished = submit_and_run(
            env, cpu, [(f"t{i}", 40.0, 0.0) for i in range(4)])
        assert all(t == pytest.approx(40.0) for t in finished.values())

    def test_invalid_configuration_rejected(self, env):
        with pytest.raises(ValueError):
            SfsCpu(env, cores=0)
        with pytest.raises(ValueError):
            SfsCpu(env, cores=1, min_slice_ms=10.0, max_slice_ms=5.0)


class TestSliceCoalescing:
    """PR-5: merged slice timers must not move any observable boundary.

    With ``coalesce=True`` (the default) the core loop merges adjacent
    slice timers whenever occupancy cannot change before they fire, and
    skips the timer entirely when it would fire at ``now``.  The observed
    schedule — who finishes when — must be bit-identical to the naive
    one-timer-per-slice discipline, while the kernel processes
    substantially fewer events.
    """

    #: A short burst followed by a long solo tail on two cores: exercises
    #:   - contended slicing while the shorts arrive (no merging possible —
    #:     every boundary is a potential preemption point),
    #:   - promotion of the long task to background,
    #:   - the solo stretch where adjacent slices merge aggressively.
    SPECS = ([("long", 600.0, 0.0)]
             + [(f"short{i}", 8.0, 10.0 * i) for i in range(6)])

    def _run(self, coalesce):
        from repro.sim.kernel import Environment
        env = Environment()
        cpu = SfsCpu(env, cores=2, coalesce=coalesce)
        finished = submit_and_run(env, cpu, self.SPECS)
        return finished, env.events_processed

    def test_schedule_identical_with_fewer_events(self):
        merged, merged_events = self._run(coalesce=True)
        naive, naive_events = self._run(coalesce=False)
        # Bit-identical completion schedule (no approx: exact floats).
        assert merged == naive
        # And a real event-count reduction, not a marginal one.
        assert merged_events < naive_events
        reduction = 1.0 - merged_events / naive_events
        assert reduction >= 0.20, (merged_events, naive_events)

    def test_single_long_task_collapses_to_few_events(self):
        from repro.sim.kernel import Environment
        env = Environment()
        cpu = SfsCpu(env, cores=1, coalesce=True)
        finished = submit_and_run(env, cpu, [("solo", 400.0, 0.0)])
        assert finished["solo"] == pytest.approx(400.0)
        # A solo task with no competition needs only a handful of events,
        # not one per adaptive slice.
        assert env.events_processed < 20

    def test_time_hooks_disable_merging_but_not_correctness(self):
        from repro.sim.kernel import Environment
        samples = []
        env = Environment()
        env.add_time_hook(lambda _old, now: samples.append(now))
        cpu = SfsCpu(env, cores=2, coalesce=True)
        finished = submit_and_run(env, cpu, self.SPECS)
        naive, _ = self._run(coalesce=False)
        assert finished == naive
        # Hooked runs still observe every slice boundary.
        assert samples == sorted(samples)
