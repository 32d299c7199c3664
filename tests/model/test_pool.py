"""Tests for the keep-alive container pool."""

from __future__ import annotations

import pytest

from repro.common.errors import ContainerCrashed, ContainerStateError
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.container import SimContainer
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.pool import ContainerPool
from repro.model.workprofile import cpu_profile


def make_spec(function_id="f"):
    return FunctionSpec(function_id=function_id, kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(10.0))


def started_container(env, machine, spec, container_id="c-0"):
    container = SimContainer(env=env, machine=machine,
                             container_id=container_id, function=spec,
                             calibration=DEFAULT_CALIBRATION)
    env.run_process(env.process(container.start()))
    return container


class TestAcquireRelease:
    def test_acquire_from_empty_pool_is_miss(self, env):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        assert pool.acquire("f") is None
        assert pool.cold_misses == 1

    def test_release_then_acquire_is_warm_hit(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        spec = make_spec()
        container = started_container(env, machine, spec)
        pool.register_started(container)
        pool.release(container)
        assert pool.idle_count("f") == 1
        assert pool.acquire("f") is container
        assert pool.warm_hits == 1

    def test_acquire_is_per_function(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec("f"))
        pool.register_started(container)
        pool.release(container)
        assert pool.acquire("g") is None
        assert pool.acquire("f") is container

    def test_release_busy_container_rejected(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec())
        container.active_invocations = 1  # simulate in-flight work
        with pytest.raises(ContainerStateError):
            pool.release(container)

    def test_provisioned_total_counts_registrations(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        for i in range(3):
            pool.register_started(
                started_container(env, machine, make_spec(), f"c-{i}"))
        assert pool.provisioned_total == 3

    def test_invalid_keep_alive_rejected(self, env):
        with pytest.raises(ValueError):
            ContainerPool(env, keep_alive_ms=0.0)


class TestStaleEviction:
    def test_stopped_container_on_idle_list_is_evicted_and_counted(
            self, env, machine):
        # Regression: acquire() used to pop non-idle containers off the
        # idle list and silently drop them — no accounting, and their
        # pending expiry process could later double-stop them.
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec())
        pool.register_started(container)
        pool.release(container)
        container.stop()  # out-of-band stop while parked
        assert pool.acquire("f") is None  # stale container is not handed out
        assert pool.stale_evictions == 1
        assert pool.cold_misses == 1
        assert pool.warm_hits == 0
        assert pool.metrics.counter("pool.stale_evictions").value == 1.0
        env.run()  # the old expiry process must stand down, not double-stop
        assert pool.expired_total == 0

    def test_busy_container_on_idle_list_is_evicted_without_stop(
            self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec())
        pool.register_started(container)
        pool.release(container)
        container.active_invocations = 1  # re-activated out of band
        assert pool.acquire("f") is None
        assert pool.stale_evictions == 1
        assert container.state.value != "stopped"  # active work untouched

    def test_stale_then_fresh_container_still_served(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        stale = started_container(env, machine, make_spec(), "c-stale")
        fresh = started_container(env, machine, make_spec(), "c-fresh")
        for container in (stale, fresh):
            pool.register_started(container)
            pool.release(container)
        # LIFO pop order: fresh, released last, is the head ...
        fresh.active_invocations = 1  # ... and goes stale
        assert pool.acquire("f") is stale
        assert pool.stale_evictions == 1
        assert pool.warm_hits == 1


class TestKeepAliveExpiry:
    def test_idle_container_expires(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=500.0)
        spec = make_spec()
        container = started_container(env, machine, spec)
        pool.register_started(container)
        pool.release(container)
        env.run()
        assert pool.idle_count("f") == 0
        assert pool.expired_total == 1
        assert container.state.value == "stopped"
        # The container's memory was released on expiry.
        assert machine.memory.used_mb == pytest.approx(0.0)

    def test_reacquire_cancels_expiry(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=500.0)
        spec = make_spec()
        container = started_container(env, machine, spec)
        pool.register_started(container)
        pool.release(container)

        def reuser():
            yield env.timeout(100.0)
            taken = pool.acquire("f")
            assert taken is container
            yield env.timeout(1_000.0)  # keep it out past the old deadline
            pool.release(taken)

        env.process(reuser())
        env.run(until=1_400.0)
        assert container.is_warm  # old expiry must not have fired
        env.run()
        assert pool.expired_total == 1  # the re-armed expiry eventually fires

    def test_expiry_callback_invoked(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=200.0)
        expired = []
        pool.set_expiry_callback(lambda c: expired.append(c.container_id))
        container = started_container(env, machine, make_spec())
        pool.register_started(container)
        pool.release(container)
        env.run()
        assert expired == ["c-0"]


class TestRejectedReleases:
    """Regression: a crashed container must never re-enter the idle list.

    Before the guard, releasing a crashed/stopped container parked it as
    "warm" and the pool later handed it out to an invocation, which then
    failed against a dead container.
    """

    def test_crashed_container_release_is_refused(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec())
        pool.register_started(container)
        container.crash(ContainerCrashed("boom"))
        env.run(until=env.now + 1.0)
        assert pool.release(container) is False
        assert pool.rejected_releases == 1
        assert pool.metrics.counter("pool.rejected_releases").value == 1
        assert pool.idle_count("f") == 0
        assert pool.acquire("f") is None  # the corpse is never handed out

    def test_stopped_container_release_is_refused(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec())
        pool.register_started(container)
        container.stop()
        assert pool.release(container) is False
        assert pool.rejected_releases == 1
        assert pool.idle_count("f") == 0

    def test_healthy_release_still_accepted(self, env, machine):
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec())
        pool.register_started(container)
        assert pool.release(container) is True
        assert pool.rejected_releases == 0

    def test_busy_container_release_still_raises(self, env, machine):
        # The refusal path is only for dead containers; releasing one with
        # live work remains a programming error.
        pool = ContainerPool(env, keep_alive_ms=1000.0)
        container = started_container(env, machine, make_spec())
        container.active_invocations = 1
        with pytest.raises(ContainerStateError):
            pool.release(container)
        assert pool.rejected_releases == 0
