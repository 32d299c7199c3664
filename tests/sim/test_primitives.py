"""Tests for Resource and Store."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.primitives import Resource, Store


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity_immediately(self, env):
        resource = Resource(env, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        env.run()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert len(resource._waiting) == 1

    def test_release_wakes_fifo_waiter(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def worker(tag, hold_ms):
            request = resource.request()
            yield request
            order.append((tag, env.now))
            yield env.timeout(hold_ms)
            request.release()

        env.process(worker("a", 10.0))
        env.process(worker("b", 10.0))
        env.process(worker("c", 10.0))
        env.run()
        assert order == [("a", 0.0), ("b", 10.0), ("c", 20.0)]

    def test_release_without_grant_rejected(self, env):
        resource = Resource(env, capacity=1)
        held = resource.request()
        env.run()
        held.release()
        with pytest.raises(SimulationError):
            held.release()


class TestStore:
    def test_put_then_get(self, env):
        store: Store[str] = Store(env)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        env.process(getter())
        env.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, env):
        store: Store[int] = Store(env)
        got = []

        def getter():
            item = yield store.get()
            got.append((env.now, item))

        def putter():
            yield env.timeout(7.0)
            store.put(99)

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [(7.0, 99)]

    def test_fifo_across_getters(self, env):
        store: Store[int] = Store(env)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(getter("first"))
        env.process(getter("second"))
        env.run()
        store.put(1)
        store.put(2)
        env.run()
        assert got == [("first", 1), ("second", 2)]

    def test_cancel_get_withdraws_waiter(self, env):
        store: Store[int] = Store(env)
        event = store.get()
        store.cancel_get(event)
        store.put(1)
        # The cancelled getter must not have swallowed the item.
        assert not event.triggered
        assert len(store) == 1

    def test_cancel_get_after_delivery_is_noop(self, env):
        store: Store[int] = Store(env)
        store.put(3)
        event = store.get()
        assert event.triggered
        store.cancel_get(event)
        assert event.value == 3

