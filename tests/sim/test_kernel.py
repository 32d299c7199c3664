"""Tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    EventAlreadyTriggered,
    ProcessInterrupted,
    SimulationError,
)


class TestEventBasics:
    def test_event_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_attaches_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_succeed_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_then_succeed_rejected(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        seen = []

        def proc():
            yield env.timeout(25.0)
            seen.append(env.now)

        env.process(proc())
        env.run()
        assert seen == [25.0]

    def test_zero_timeout_fires_immediately(self, env):
        seen = []

        def proc():
            yield env.timeout(0.0)
            seen.append(env.now)

        env.process(proc())
        env.run()
        assert seen == [0.0]

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_carries_value(self, env):
        got = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]


class TestProcess:
    def test_return_value_becomes_process_value(self, env):
        def proc():
            yield env.timeout(5.0)
            return "done"

        process = env.process(proc())
        env.run()
        assert process.value == "done"

    def test_process_is_waitable(self, env):
        def child():
            yield env.timeout(10.0)
            return 7

        results = []

        def parent():
            value = yield env.process(child())
            results.append((env.now, value))

        env.process(parent())
        env.run()
        assert results == [(10.0, 7)]

    def test_unhandled_crash_propagates_from_run(self, env):
        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("kaputt")

        env.process(proc())
        with pytest.raises(RuntimeError, match="kaputt"):
            env.run()

    def test_joiner_receives_child_exception(self, env):
        def child():
            yield env.timeout(1.0)
            raise ValueError("inner")

        caught = []

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                caught.append(str(exc))

        env.process(parent())
        env.run()
        assert caught == ["inner"]

    def test_yielding_non_event_fails_process(self, env):
        def proc():
            yield 42  # type: ignore[misc]

        process = env.process(proc())
        with pytest.raises(SimulationError, match="not an Event"):
            env.run()
        assert process.triggered

    def test_run_process_returns_value(self, env):
        def proc():
            yield env.timeout(3.0)
            return "x"

        assert env.run_process(env.process(proc())) == "x"

    def test_run_process_detects_deadlock(self, env):
        def proc():
            yield env.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            env.run_process(env.process(proc()))

    def test_run_process_respects_until(self, env):
        def proc():
            yield env.timeout(100.0)

        with pytest.raises(SimulationError, match="did not finish"):
            env.run_process(env.process(proc()), until=10.0)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim():
            try:
                yield env.timeout(100.0)
            except ProcessInterrupted as exc:
                causes.append((env.now, exc.cause))

        process = env.process(victim())

        def attacker():
            yield env.timeout(5.0)
            process.interrupt("stop it")

        env.process(attacker())
        env.run()
        # Delivered at t=5, not when the abandoned timeout would have fired.
        assert causes == [(5.0, "stop it")]

    def test_interrupted_process_can_continue(self, env):
        trace = []

        def victim():
            try:
                yield env.timeout(100.0)
            except ProcessInterrupted:
                trace.append(("interrupted", env.now))
            yield env.timeout(10.0)
            trace.append(("resumed", env.now))

        process = env.process(victim())

        def attacker():
            yield env.timeout(5.0)
            process.interrupt()

        env.process(attacker())
        env.run()
        assert trace == [("interrupted", 5.0), ("resumed", 15.0)]

    def test_interrupting_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1.0)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()


class TestComposites:
    def test_all_of_waits_for_every_child(self, env):
        results = []

        def proc():
            values = yield env.timeout(5.0, "a") & env.timeout(10.0, "b")
            results.append((env.now, values))

        env.process(proc())
        env.run()
        assert results == [(10.0, ["a", "b"])]

    def test_any_of_takes_the_first(self, env):
        results = []

        def proc():
            winner, value = yield env.timeout(5.0, "fast") | env.timeout(9.0)
            results.append((env.now, value))

        env.process(proc())
        env.run()
        assert results == [(5.0, "fast")]

    def test_all_of_fails_fast(self, env):
        bad = env.event()

        def failer():
            yield env.timeout(2.0)
            bad.fail(RuntimeError("child failed"))

        caught = []

        def waiter():
            try:
                yield env.all_of([env.timeout(50.0), bad])
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        env.process(failer())
        env.process(waiter())
        env.run()
        assert caught == [(2.0, "child failed")]

    def test_all_of_on_already_processed_children(self, env):
        def proc():
            first = env.timeout(1.0, "x")
            yield first
            values = yield env.all_of([first])
            return values

        assert env.run_process(env.process(proc())) == ["x"]


class TestDeterminism:
    def test_same_time_events_fire_in_fifo_order(self, env):
        order = []

        def make(tag):
            def proc():
                yield env.timeout(10.0)
                order.append(tag)
            return proc

        for tag in ("a", "b", "c", "d"):
            env.process(make(tag)())
        env.run()
        assert order == ["a", "b", "c", "d"]

    def test_run_until_stops_the_clock(self, env):
        def proc():
            yield env.timeout(100.0)

        env.process(proc())
        env.run(until=30.0)
        assert env.now == 30.0
        env.run()
        assert env.now == 100.0

    def test_peek_reports_next_event_time(self, env):
        env.timeout(42.0)
        assert env.peek() == 42.0

    def test_peek_empty_queue_is_infinite(self, env):
        env.run()
        assert env.peek() == float("inf")

    def test_step_on_empty_queue_rejected(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestTimeoutCancellation:
    def test_cancelled_timeout_never_fires(self, env):
        fired = []
        timer = env.timeout(5.0)
        timer.callbacks.append(lambda _e: fired.append(env.now))
        timer.cancel()
        env.run()
        assert fired == []
        # Discarded without processing: the clock never visits t=5.
        assert env.now == 0.0

    def test_cancelled_timeout_not_counted_as_processed(self, env):
        env.timeout(1.0).cancel()
        env.timeout(2.0)
        env.run()
        assert env.events_processed == 1
        assert env.now == 2.0

    def test_cancel_after_processing_is_noop(self, env):
        timer = env.timeout(1.0)
        env.run()
        timer.cancel()
        assert not timer.cancelled
        assert env._cancelled == 0

    def test_cancel_twice_counts_once(self, env):
        timer = env.timeout(1.0)
        timer.cancel()
        timer.cancel()
        assert env._cancelled == 1

    def test_peek_skips_cancelled_head(self, env):
        first = env.timeout(1.0)
        env.timeout(3.0)
        first.cancel()
        assert env.peek() == 3.0

    def test_run_terminates_when_only_cancelled_events_remain(self, env):
        for _ in range(5):
            env.timeout(1.0).cancel()
        env.run()
        assert env.now == 0.0
        assert env.events_processed == 0
        assert len(env._future) == 0

    def test_compaction_bounds_heap_growth(self, env):
        # Regression: abandoning timers must not grow the heap without
        # bound — amortised compaction caps it at the threshold even when
        # nothing is ever popped.
        threshold = type(env).COMPACT_THRESHOLD
        for _ in range(threshold * 10):
            env.timeout(1000.0).cancel()
        assert len(env._future) < threshold


class TestDefer:
    def test_defer_beats_normal_events_at_the_same_instant(self, env):
        order = []
        done = env.event()
        done.callbacks.append(lambda _e: order.append("normal"))
        done.succeed()                       # normal priority, enqueued first
        env.defer(lambda: order.append("deferred"))  # urgent, enqueued second
        env.run()
        assert order == ["deferred", "normal"]

    def test_defer_runs_before_the_clock_advances(self, env):
        stamps = []

        def proc():
            yield env.timeout(5.0)

        env.process(proc())
        env.defer(lambda: stamps.append(env.now))
        env.run()
        assert stamps == [0.0]

    def test_defer_from_callback_runs_within_the_same_instant(self, env):
        stamps = []

        def proc():
            yield env.timeout(3.0)
            env.defer(lambda: stamps.append(env.now))
            yield env.timeout(4.0)

        env.process(proc())
        env.run()
        assert stamps == [3.0]


class TestTimeHooks:
    """The hook contract: each advance once, as (old, new), before the
    events at the new instant — whichever loop drives the kernel."""

    @staticmethod
    def schedule(env, log):
        """Events at 0, 5 (several), 8, 12 (two) and a tombstone at 2."""

        def note(label):
            return lambda _event: log.append(("event", env.now, label))

        def worker():
            yield env.timeout(5.0)
            log.append(("event", env.now, "worker@5"))
            yield env.timeout(0.0)
            log.append(("event", env.now, "worker@5+0"))
            yield env.timeout(3.0)
            log.append(("event", env.now, "worker@8"))
            env.defer(lambda: log.append(("event", env.now, "deferred@8")))
            return "done"

        process = env.process(worker())
        env.timeout(2.0).cancel()
        for delay, label in ((5.0, "t@5"), (12.0, "t@12a"), (12.0, "t@12b")):
            env.timeout(delay).callbacks.append(note(label))
        return process

    @staticmethod
    def install(env, log):
        def hook(old, new):
            assert env.now == new  # the clock has already moved
            log.append(("hook", old, new))

        env.add_time_hook(hook)

    @staticmethod
    def check(log, start=0.0):
        """Events fire only at the last reported instant; hooks chain."""
        now = start
        for entry in log:
            if entry[0] == "hook":
                assert entry[1] == now and entry[2] > now, entry
                now = entry[2]
            else:
                assert entry[1] == now, entry
        return [entry[1:] for entry in log if entry[0] == "hook"]

    def test_run(self, env):
        log = []
        self.install(env, log)
        self.schedule(env, log)
        env.run()
        assert self.check(log) == [(0.0, 5.0), (5.0, 8.0), (8.0, 12.0)]
        assert [e[2] for e in log if e[0] == "event"] == [
            "t@5", "worker@5", "worker@5+0", "worker@8", "deferred@8",
            "t@12a", "t@12b"]

    def test_run_until_reports_the_final_advance(self, env):
        log = []
        self.install(env, log)
        self.schedule(env, log)
        env.run(until=10.0)
        assert self.check(log) == [(0.0, 5.0), (5.0, 8.0), (8.0, 10.0)]
        env.run(until=20.0)
        assert self.check(log) == [(0.0, 5.0), (5.0, 8.0), (8.0, 10.0),
                                   (10.0, 12.0), (12.0, 20.0)]

    def test_run_process(self, env):
        log = []
        self.install(env, log)
        process = self.schedule(env, log)
        assert env.run_process(process) == "done"
        assert self.check(log) == [(0.0, 5.0), (5.0, 8.0)]
        env.run()
        assert self.check(log)[-1] == (8.0, 12.0)

    def test_step(self, env):
        log = []
        self.install(env, log)
        self.schedule(env, log)
        while env.peek() != float("inf"):
            env.step()
        assert self.check(log) == [(0.0, 5.0), (5.0, 8.0), (8.0, 12.0)]

    def test_every_loop_sees_the_same_events_as_a_hookless_run(self):
        from repro.sim.kernel import Environment

        def trace(hooked, drive):
            env, log = Environment(), []
            if hooked:
                env.add_time_hook(lambda _old, _new: None)
            process = self.schedule(env, log)
            drive(env, process)
            return log, env.events_processed, env.now

        loops = {
            "run": lambda env, _p: env.run(),
            "run-until": lambda env, _p: env.run(until=9.0),
            "run-process": lambda env, p: env.run_process(p),
        }
        for name, drive in loops.items():
            assert trace(True, drive) == trace(False, drive), name
