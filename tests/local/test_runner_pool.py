"""The live tier's threading contract: parked threads pull ready groups.

``WorkerPool`` is the one parked-thread implementation of ``repro.local``;
``LocalPlatform`` runs every group on a pool *runner* and a container
expands a batch on pool *workers*.  These tests pin what the pool must
keep true — no thread per group in steady state, unbounded concurrency,
timeouts that abandon a thread without losing it — and the failure and
shutdown paths around it.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.common.errors import ContainerStateError, InvocationTimeout
from repro.local.container import LocalContainer, WorkerPool
from repro.local.runtime import LocalPlatform, LocalPlatformConfig
from tests.local.helpers import call, call_group, submit


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def all_parked(platform: LocalPlatform) -> bool:
    return platform.runners_idle == platform.runners_started


def vanilla_platform(**overrides) -> LocalPlatform:
    """The gw-http-echo shape: one request per group, serial containers."""
    knobs = dict(container_concurrency=1, use_multiplexer=False,
                 cold_start_seconds=0.0, request_timeout_seconds=2.0)
    knobs.update(overrides)
    platform = LocalPlatform(LocalPlatformConfig(**knobs))
    platform.register("echo", lambda payload, context: payload)
    return platform


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts every ``threading.Thread.start`` made while it is active."""
    starts = []
    real_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts


class TestWorkerPool:
    def test_sequential_work_reuses_one_thread(self):
        ran = []
        done = threading.Event()

        def run(item):
            ran.append((item, threading.current_thread().name))
            done.set()

        pool = WorkerPool("t", run)
        for item in range(20):
            done.clear()
            pool.submit(item)
            assert done.wait(5)
            assert wait_until(lambda: pool.idle == 1)
        assert pool.started == 1
        assert {name for _, name in ran} == {"t-0"}
        for thread in pool.close():
            thread.join(5)
            assert not thread.is_alive()

    def test_grows_only_when_nobody_is_parked(self):
        gate = threading.Event()
        pool = WorkerPool("t", lambda: gate.wait(5))
        for _ in range(5):
            pool.submit()
        assert pool.started == 5 and pool.idle == 0
        gate.set()
        assert wait_until(lambda: pool.idle == 5)
        for _ in range(5):
            pool.submit()
        assert pool.started == 5
        pool.close()

    def test_a_raising_call_costs_no_thread(self, monkeypatch):
        reported = []
        monkeypatch.setattr(threading, "excepthook", reported.append)

        def run(item):
            if item == "bad":
                raise RuntimeError("bug in run")

        pool = WorkerPool("t", run)
        pool.submit("bad")
        assert wait_until(lambda: pool.idle == 1)
        pool.submit("good")
        assert wait_until(lambda: pool.idle == 1)
        assert pool.started == 1
        assert [args.exc_type for args in reported] == [RuntimeError]
        pool.close()

    def test_failed_thread_start_queues_nothing(self, monkeypatch):
        ran = []
        pool = WorkerPool("t", ran.append)
        real_start = threading.Thread.start

        def no_threads(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            pool.submit("lost")
        monkeypatch.setattr(threading.Thread, "start", real_start)
        pool.submit("served")
        assert wait_until(lambda: pool.idle == 1)
        assert ran == ["served"] and pool.started == 1
        pool.close()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool("t", lambda: None)
        pool.close()
        with pytest.raises(ContainerStateError):
            pool.submit()


@pytest.fixture
def eager_switching():
    """Preempt threads every 10 µs so lost updates show up in seconds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestUnderContention:
    def test_pool_runs_every_item_once(self, eager_switching):
        ran = []
        pool = WorkerPool("t", ran.append)
        producers, each = 8, 400

        def produce(base):
            for n in range(each):
                pool.submit(base + n)

        threads = [threading.Thread(target=produce, args=(k * each,))
                   for k in range(producers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert wait_until(lambda: len(ran) == producers * each, timeout=30)
        assert sorted(ran) == list(range(producers * each))
        # Every claim was matched by a park: nobody is counted twice.
        assert wait_until(lambda: pool.idle == pool.started)
        for thread in pool.close():
            thread.join(5)
            assert not thread.is_alive()

    def test_deadline_and_return_settle_each_member_once(
            self, eager_switching):
        """Handlers finish right around their budget: both sides race."""
        budget = 0.02
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0, request_timeout_seconds=budget))
        platform.register(
            "edge", lambda payload, context: time.sleep(payload) or payload)
        resolved = []
        lock = threading.Lock()

        def on_resolved(invocations):
            with lock:
                resolved.extend(inv.invocation_id for inv in invocations)

        try:
            submitted = []
            for round_ in range(30):
                naps = [budget * (0.6 + 0.1 * (n % 8)) for n in range(4)]
                submitted += platform.submit_group("edge", naps,
                                                   on_resolved)
            platform.drain(timeout=30)
            assert sorted(resolved) == sorted(
                inv.invocation_id for inv in submitted)
            assert len(platform.completed) == len(submitted)
            for inv in submitted:
                assert len(inv.attempt_history) == 1
                timed_out = isinstance(inv.error, InvocationTimeout)
                assert timed_out or inv.result == inv.payload
            assert wait_until(lambda: all_parked(platform), timeout=10)
            with platform._lock:
                containers = list(platform._containers)
            assert all(c.active_invocations == 0 for c in containers)
            assert sum(c.invocations_served for c in containers) \
                == len(submitted)
        finally:
            platform.shutdown()

    def test_lanes_and_deadlines_run_each_member_once(self, eager_switching):
        """Fewer lanes than members, handlers right around their budget:
        lanes race for the queue and the watcher hands abandoned lanes'
        members on, and every member still runs and settles once."""
        budget = 0.02
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0, request_timeout_seconds=budget,
            container_concurrency=2))
        calls = []
        lock = threading.Lock()

        def edge(payload, context):
            with lock:
                calls.append(payload)
            time.sleep(budget * (0.6 + 0.1 * (payload % 8)))
            return payload

        platform.register("edge", edge)
        resolved = []
        try:
            submitted = []
            for round_ in range(10):
                submitted += platform.submit_group(
                    "edge", list(range(round_ * 6, round_ * 6 + 6)),
                    lambda invocations: resolved.extend(invocations))
            platform.drain(timeout=30)
            assert sorted(calls) == list(range(60))
            assert sorted(inv.invocation_id for inv in resolved) == \
                sorted(inv.invocation_id for inv in submitted)
            for inv in submitted:
                timed_out = isinstance(inv.error, InvocationTimeout)
                assert timed_out or inv.result == inv.payload
            with platform._lock:
                containers = list(platform._containers)
            assert all(c.active_invocations == 0 for c in containers)
            assert sum(c.invocations_served for c in containers) == 60
        finally:
            platform.shutdown()


class TestRunnerPoolContract:
    def test_sequential_groups_start_no_threads(self, thread_starts):
        platform = vanilla_platform()
        try:
            for n in range(20):  # warm-up: pool and container come up
                assert call(platform, "echo", n).result(timeout=5) == n
            warm = len(thread_starts)
            resolved = threading.Event()
            for n in range(2000):
                resolved.clear()
                platform.submit_group(
                    "echo", [n], lambda _invocations: resolved.set())
                assert resolved.wait(5)
            assert len(thread_starts) - warm <= 4, thread_starts[warm:]
            assert platform.runners_started <= 4
            assert len(platform.completed) == 2020
        finally:
            platform.shutdown()

    def test_retried_groups_start_no_threads(self, thread_starts):
        """The thread that finished a group restarts its retry on a
        parked runner: retries start no thread either."""
        platform = vanilla_platform(max_attempts=2)
        platform.register("boom", lambda payload, context: 1 / 0)
        try:
            for n in range(20):
                assert isinstance(call(platform, "boom", n).exception(
                    timeout=5), ZeroDivisionError)
            warm = len(thread_starts)
            for n in range(300):
                assert isinstance(call(platform, "boom", n).exception(
                    timeout=5), ZeroDivisionError)
            assert len(thread_starts) - warm <= 4, thread_starts[warm:]
            assert platform.retries_scheduled == 320
        finally:
            platform.shutdown()

    def test_concurrent_groups_all_run_at_once(self):
        """A fixed-size pool would deadlock here: grow-on-demand is pinned."""
        groups = 64
        barrier = threading.Barrier(groups)
        platform = vanilla_platform(request_timeout_seconds=None)
        platform.register(
            "meet", lambda payload, context: barrier.wait(20) >= 0)
        try:
            futures = [call(platform, "meet", n) for n in range(groups)]
            assert all(future.result(timeout=30) is True
                       for future in futures)
            assert platform.runners_started >= groups
        finally:
            platform.shutdown()

    def test_timeout_abandons_a_runner_then_gets_it_back(self):
        release = threading.Event()
        platform = vanilla_platform(request_timeout_seconds=0.05)
        platform.register("stuck", lambda payload, context: release.wait(10))
        try:
            (stuck,), (stuck_future,) = submit(platform, "stuck", [None])
            error = stuck_future.exception(timeout=5)
            assert isinstance(error, InvocationTimeout)
            assert "exceeded 0.05s" in str(error) and "attempt 1" in str(error)
            # The handler is still running on its runner; the platform
            # keeps serving on others meanwhile.
            for n in range(20):
                assert call(platform, "echo", n).result(timeout=5) == n
            assert not all_parked(platform)
            started = platform.runners_started
            release.set()
            assert wait_until(lambda: all_parked(platform))
            for n in range(20):
                assert call(platform, "echo", n).result(timeout=5) == n
            assert platform.runners_started == started
            # The late return changed nothing about the settled outcome.
            assert isinstance(stuck.error, InvocationTimeout)
            assert len(stuck.attempt_history) == 1
        finally:
            release.set()
            platform.shutdown()

    def test_timeout_inside_a_batch_finishes_the_group(self):
        """One overrunning member must not hold its siblings' responses."""
        release = threading.Event()
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0, request_timeout_seconds=0.05))
        platform.register(
            "mixed", lambda payload, context:
            release.wait(10) if payload == "slow" else payload)
        try:
            for slow_at in (0, 2):  # on a container worker, on the runner
                payloads = ["a", "b", "c"]
                payloads[slow_at] = "slow"
                futures = call_group(platform, "mixed", payloads)
                for position, future in enumerate(futures):
                    if position == slow_at:
                        assert isinstance(future.exception(timeout=5),
                                          InvocationTimeout)
                    else:
                        assert future.result(timeout=5) \
                            == payloads[position]
            platform.drain(timeout=5)
        finally:
            release.set()
            platform.shutdown()

    @pytest.mark.parametrize("slow_at", [0, 1, 2])
    def test_timeout_inside_a_serial_batch_finishes_the_group(self, slow_at):
        """A serial container runs its batch in order on the runner; the
        members behind an overrunning one go on on one pooled worker."""
        release = threading.Event()
        platform = vanilla_platform(request_timeout_seconds=0.05)
        platform.register(
            "mixed", lambda payload, context:
            release.wait(10) if payload == "slow" else payload)
        try:
            payloads = ["a", "b", "c"]
            payloads[slow_at] = "slow"
            futures = call_group(platform, "mixed", payloads)
            for position, future in enumerate(futures):
                if position == slow_at:
                    assert isinstance(future.exception(timeout=5),
                                      InvocationTimeout)
                else:
                    assert future.result(timeout=5) == payloads[position]
            platform.drain(timeout=5)
            (container,) = platform._containers
            # Only members queued behind the abandoned one needed a lane.
            assert container._workers.started == (slow_at < 2)
        finally:
            release.set()
            platform.shutdown()

    def test_a_late_return_cannot_settle_the_retry(self):
        """Attempt 1's abandoned handler returns while attempt 2 runs."""
        first_may_return = threading.Event()
        second_started = threading.Event()
        calls = []

        def handler(payload, context):
            calls.append(len(calls) + 1)
            if calls[-1] == 1:
                first_may_return.wait(10)
                return "stale"
            second_started.set()
            time.sleep(0.02)
            return "fresh"

        platform = vanilla_platform(request_timeout_seconds=0.2,
                                    max_attempts=2)
        platform.register("twice", handler)
        try:
            (inv,), (future,) = submit(platform, "twice", [None])
            assert second_started.wait(5)
            first_may_return.set()
            assert future.result(timeout=5) == "fresh"
            assert [record["error"] for record in inv.attempt_history] \
                == ["InvocationTimeout", None]
        finally:
            first_may_return.set()
            platform.shutdown()


class TestSerialContainers:
    def test_a_serial_container_starts_no_thread(self):
        """At concurrency 1 a batch runs in order on its runner: a burst
        of a few hundred members starts no container worker."""
        platform = vanilla_platform()
        order = []
        platform.register("log", lambda payload, context:
                          order.append(payload) or payload)
        try:
            groups = [platform.submit_group(
                "log", list(range(start, start + 64)))
                for start in range(0, 320, 64)]
            platform.drain(timeout=10)
            for group in groups:
                assert [inv.result for inv in group] == \
                    [inv.payload for inv in group]
            # Each group ran in submission order.
            for start in range(0, 320, 64):
                members = [n for n in order if start <= n < start + 64]
                assert members == list(range(start, start + 64))
            with platform._lock:
                containers = list(platform._containers)
            assert containers
            assert [c._workers.started for c in containers] == \
                [0] * len(containers)
        finally:
            platform.shutdown()

    def test_a_bounded_container_runs_at_most_its_concurrency(self):
        """More members than lanes: never more than ``concurrency`` run
        at once, and the container starts ``concurrency - 1`` workers."""
        running = []
        most = []
        lock = threading.Lock()

        def tracked(payload, context):
            with lock:
                running.append(payload)
                most.append(len(running))
            time.sleep(0.002)
            with lock:
                running.remove(payload)
            return payload

        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0, container_concurrency=3))
        platform.register("tracked", tracked)
        try:
            group = platform.submit_group("tracked", list(range(30)))
            platform.drain(timeout=10)
            assert [inv.result for inv in group] == list(range(30))
            assert max(most) <= 3
            (container,) = platform._containers
            assert container._workers.started <= 2
        finally:
            platform.shutdown()


class TestDeadlineWatcher:
    def test_holds_only_calls_in_flight(self):
        """Calls that settle in time leave the watcher's FIFO as they
        settle, not a whole budget later."""
        platform = vanilla_platform(request_timeout_seconds=2.0)
        try:
            resolved = threading.Event()
            for n in range(400):  # closed loop: one call in flight
                resolved.clear()
                platform.submit_group(
                    "echo", [n], lambda _invocations: resolved.set())
                assert resolved.wait(5)
            platform.drain(timeout=5)
            assert len(platform._watcher._pending) <= 2
        finally:
            platform.shutdown()

    def test_an_unsettled_head_still_expires(self):
        release = threading.Event()
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0, request_timeout_seconds=0.05))
        platform.register("stuck", lambda payload, context: release.wait(10))
        platform.register("echo", lambda payload, context: payload)
        try:
            stuck = call(platform, "stuck")
            quick = [call(platform, "echo", n) for n in range(50)]
            assert [future.result(timeout=5) for future in quick] == \
                list(range(50))
            assert isinstance(stuck.exception(timeout=5), InvocationTimeout)
            platform.drain(timeout=5)
            assert wait_until(lambda: not platform._watcher._pending)
        finally:
            release.set()
            platform.shutdown()


class TestFutureSemantics:
    def test_invoke_future_resolves_and_raises(self):
        platform = vanilla_platform()
        platform.register("boom", lambda payload, context: 1 / 0)
        try:
            assert call(platform, "echo", 7).result(timeout=5) == 7
            with pytest.raises(ZeroDivisionError):
                call(platform, "boom").result(timeout=5)
        finally:
            platform.shutdown()

    def test_single_attempt_history_is_derived_not_stored(self):
        platform = vanilla_platform()
        try:
            (inv,) = platform.submit_group("echo", [7])
            assert inv.attempt_history == []  # nothing finished yet ...
            platform.drain(timeout=5)
            (container,) = platform._containers
            assert inv.attempt_history == [{
                "attempt": 1, "window_seq": inv.window_seq,
                "container_id": container.container_id, "error": None}]
            assert inv._failed_attempts is None  # ... and nothing archived
        finally:
            platform.shutdown()

    def test_on_resolved_runs_once_and_is_dropped(self):
        platform = vanilla_platform()
        seen = []
        try:
            group = platform.submit_group(
                "echo", [1, 2, 3],
                lambda invocations: seen.extend(
                    (inv.position, inv.result) for inv in invocations))
            platform.drain(timeout=5)
            assert sorted(seen) == [(0, 1), (1, 2), (2, 3)]
            assert all(inv.on_resolved is None for inv in group)
            for inv in group:
                inv.resolve()  # idempotent
            assert len(seen) == 3
        finally:
            platform.shutdown()


class TestGroupFailsOutsideAHandler:
    """Acquire/execute failures settle every member, with the error."""

    def test_execute_batch_failure_is_an_error_not_a_null_success(
            self, monkeypatch):
        def broken(self, invocations, on_done=None):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(LocalContainer, "execute_batch", broken)
        platform = vanilla_platform()
        try:
            group, futures = submit(platform, "echo", [1, 2, 3])
            for future in futures:
                error = future.exception(timeout=5)
                assert isinstance(error, RuntimeError)
                assert "can't start new thread" in str(error)
            platform.drain(timeout=2)
            assert platform.retries_exhausted == 3
            assert [inv.attempt_history[-1]["error"] for inv in group] \
                == ["RuntimeError"] * 3
        finally:
            platform.shutdown()

    def test_acquire_failure_resolves_and_drains(self, monkeypatch):
        platform = vanilla_platform()

        def broken(name):
            raise MemoryError("no room for a container")

        monkeypatch.setattr(platform, "_acquire", broken)
        try:
            future = call(platform, "echo", 1)
            assert isinstance(future.exception(timeout=5), MemoryError)
            started = time.monotonic()
            platform.drain(timeout=2)
            assert time.monotonic() - started < 1.0
            (inv,) = platform.completed
            assert inv.attempt_history == [{
                "attempt": 1, "window_seq": inv.window_seq,
                "container_id": None, "error": "MemoryError"}]
        finally:
            platform.shutdown()

    def test_failure_takes_the_retry_path(self, monkeypatch):
        platform = vanilla_platform(max_attempts=2)
        real_acquire = platform._acquire
        failures = []

        def flaky(name):
            if not failures:
                failures.append(name)
                raise OSError("transient")
            return real_acquire(name)

        monkeypatch.setattr(platform, "_acquire", flaky)
        try:
            assert call(platform, "echo", 5).result(timeout=5) == 5
            assert platform.retries_scheduled == 1
            assert platform.retries_exhausted == 0
            (inv,) = platform.completed
            assert [record["error"] for record in inv.attempt_history] \
                == ["OSError", None]
        finally:
            platform.shutdown()

    def test_no_runner_thread_to_be_had(self, monkeypatch):
        platform = vanilla_platform()
        real_start = threading.Thread.start

        def no_threads(thread):
            if thread.name.startswith("local-runner"):
                raise RuntimeError("can't start new thread")
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        try:
            assert isinstance(call(platform, "echo", 1).exception(timeout=5), RuntimeError)
            platform.drain(timeout=2)
            monkeypatch.setattr(threading.Thread, "start", real_start)
            assert call(platform, "echo", 2).result(timeout=5) == 2
        finally:
            monkeypatch.setattr(threading.Thread, "start", real_start)
            platform.shutdown()

    def test_no_worker_thread_inside_a_batch(self, monkeypatch):
        """Members that got a thread run; the others fail; nothing hangs."""
        platform = LocalPlatform(LocalPlatformConfig(cold_start_seconds=0.0))
        platform.register("echo", lambda payload, context: payload)
        real_start = threading.Thread.start

        def no_workers(thread):
            if ":worker" in thread.name:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", no_workers)
        try:
            futures = call_group(platform, "echo", [1, 2, 3])
            assert isinstance(futures[0].exception(timeout=5), RuntimeError)
            assert isinstance(futures[1].exception(timeout=5), RuntimeError)
            assert futures[2].result(timeout=5) == 3  # the runner's
            platform.drain(timeout=2)
        finally:
            monkeypatch.setattr(threading.Thread, "start", real_start)
            platform.shutdown()

    def test_fifty_failures_leave_threads_and_drain_healthy(
            self, monkeypatch):
        platform = vanilla_platform()
        try:
            assert call(platform, "echo", 0).result(timeout=5) == 0
            assert wait_until(lambda: all_parked(platform))
            threads_before = threading.active_count()

            def broken(self, invocations, on_done=None):
                raise RuntimeError("can't start new thread")

            monkeypatch.setattr(LocalContainer, "execute_batch", broken)
            for n in range(50):
                assert isinstance(call(platform, "echo", n).exception(timeout=5),
                                  RuntimeError)
            platform.drain(timeout=2)
            assert wait_until(lambda: all_parked(platform))
            assert threading.active_count() <= threads_before
            monkeypatch.undo()
            assert call(platform, "echo", 9).result(timeout=5) == 9
        finally:
            platform.shutdown()


class TestSharedStateIsLocked:
    def test_reuse_ratio_counts_busy_containers(self):
        release = threading.Event()
        looked_up = threading.Event()
        platform = LocalPlatform(LocalPlatformConfig(cold_start_seconds=0.0))

        def handler(payload, context):
            context.create_resource(str, payload)
            context.create_resource(str, payload)
            looked_up.set()
            release.wait(10)

        platform.register("busy", handler)
        try:
            platform.submit_group("busy", [1])
            assert looked_up.wait(5)
            # The only container is mid-request, in no idle list.
            assert platform.multiplexer_reuse_ratio() == 0.5
        finally:
            release.set()
            platform.shutdown()

    def test_reuse_ratio_survives_concurrent_releases(self):
        platform = LocalPlatform(LocalPlatformConfig(cold_start_seconds=0.0))
        names = [f"fn{n}" for n in range(150)]
        for name in names:
            platform.register(name, lambda payload, context: payload)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    platform.multiplexer_reuse_ratio()
                except RuntimeError as error:  # dict changed size ...
                    failures.append(error)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for name in names:  # every release inserts a new key
                platform.submit_group(name, [1])
            platform.drain(timeout=10)
        finally:
            stop.set()
            thread.join(5)
            platform.shutdown()
        assert failures == []

    def test_retry_counters_are_exact_under_concurrency(self):
        seen = set()
        lock = threading.Lock()

        def fails_first(payload, context):
            with lock:
                first = payload not in seen
                seen.add(payload)
            if first:
                raise RuntimeError("first attempt")
            return payload

        platform = vanilla_platform(max_attempts=2,
                                    request_timeout_seconds=None)
        platform.register("flaky", fails_first)
        platform.register("doomed", lambda payload, context: 1 / 0)
        try:
            for n in range(150):
                platform.submit_group("flaky", [n])
                platform.submit_group("doomed", [n])
            platform.drain(timeout=20)
            assert platform.retries_scheduled == 300
            assert platform.retries_exhausted == 150
        finally:
            platform.shutdown()


class TestPromptStop:
    def live_platform_threads(self):
        return [thread.name for thread in threading.enumerate()
                if thread.name.startswith(("local-", "container-"))]

    def test_idle_platform_stops_within_five_milliseconds(self):
        took = []
        for _ in range(5):
            platform = vanilla_platform()
            assert call(platform, "echo", 1).result(timeout=5) == 1
            assert wait_until(lambda: all_parked(platform))
            started = time.perf_counter()
            platform.shutdown()
            took.append(time.perf_counter() - started)
        # Best of five: the bound is about the code path (nobody sleeps
        # out a poll interval), not about this host's scheduler.
        assert min(took) < 0.005, took

    def test_shutdown_joins_every_platform_thread(self):
        before = set(self.live_platform_threads())
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0,
            request_timeout_seconds=1.0))
        platform.register("echo", lambda payload, context: payload)
        futures = call_group(platform, "echo", list(range(40)))
        assert [f.result(timeout=5) for f in futures] == list(range(40))
        for n in range(10):
            platform.submit_group("echo", [n, n, n])
        platform.drain(timeout=5)
        assert set(self.live_platform_threads()) - before
        platform.shutdown()
        assert wait_until(
            lambda: not set(self.live_platform_threads()) - before,
            timeout=2), self.live_platform_threads()

