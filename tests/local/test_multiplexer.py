"""Tests for the real (threading) Resource Multiplexer."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MultiplexerError
from repro.common.multiplexer import ResourceMultiplexer, hash_arguments


def slow_factory(tag, delay=0.01):
    time.sleep(delay)
    return {"tag": tag, "id": object()}


class TestBasics:
    def test_same_args_share_one_instance(self):
        multiplexer = ResourceMultiplexer()
        a = multiplexer.get_or_create(slow_factory, "x")
        b = multiplexer.get_or_create(slow_factory, "x")
        assert a is b
        assert multiplexer.stats.misses == 1
        assert multiplexer.stats.hits == 1

    def test_different_args_build_separately(self):
        multiplexer = ResourceMultiplexer()
        a = multiplexer.get_or_create(slow_factory, "x")
        b = multiplexer.get_or_create(slow_factory, "y")
        assert a is not b
        assert multiplexer.stats.misses == 2

    def test_different_factories_do_not_collide(self):
        multiplexer = ResourceMultiplexer()

        def other_factory(tag):
            return ("other", tag)

        a = multiplexer.get_or_create(slow_factory, "x")
        b = multiplexer.get_or_create(other_factory, "x")
        assert a is not b

    def test_kwargs_participate_in_key(self):
        multiplexer = ResourceMultiplexer()
        a = multiplexer.get_or_create(slow_factory, "x", delay=0.001)
        b = multiplexer.get_or_create(slow_factory, "x", delay=0.002)
        assert a is not b

    def test_hit_is_fast(self):
        multiplexer = ResourceMultiplexer()
        multiplexer.get_or_create(slow_factory, "x", delay=0.05)
        start = time.monotonic()
        multiplexer.get_or_create(slow_factory, "x", delay=0.05)
        assert time.monotonic() - start < 0.01


class TestConcurrency:
    def test_racing_threads_build_exactly_once(self):
        multiplexer = ResourceMultiplexer()
        build_count = [0]
        lock = threading.Lock()

        def counted_factory(tag):
            with lock:
                build_count[0] += 1
            time.sleep(0.02)
            return object()

        results = []

        def worker():
            results.append(
                multiplexer.get_or_create(counted_factory, "shared"))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert build_count[0] == 1
        assert len({id(r) for r in results}) == 1
        metrics = multiplexer.stats
        assert metrics.misses == 1
        assert metrics.hits + metrics.in_flight_waits == 15

    def test_failed_build_propagates_to_waiters_and_allows_retry(self):
        multiplexer = ResourceMultiplexer()
        attempts = [0]
        barrier = threading.Barrier(4)

        def flaky_factory():
            attempts[0] += 1
            if attempts[0] == 1:
                time.sleep(0.02)
                raise RuntimeError("first build fails")
            return "recovered"

        errors, successes = [], []

        def worker():
            barrier.wait()
            try:
                successes.append(multiplexer.get_or_create(flaky_factory))
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The first build failed for everyone racing on it...
        assert errors
        # ...but the key was evicted, so a retry succeeds.
        assert multiplexer.get_or_create(flaky_factory) == "recovered"
        assert multiplexer.stats.failed_builds == 1


class TestManagement:
    def test_has(self):
        """A built key is held: later calls hit and build nothing."""
        multiplexer = ResourceMultiplexer()
        built = []

        def factory(tag):
            built.append(tag)
            return object()

        first = multiplexer.get_or_create(factory, "x")
        assert all(multiplexer.get_or_create(factory, "x") is first
                   for _ in range(3))
        assert built == ["x"]
        assert (multiplexer.stats.misses, multiplexer.stats.hits) \
            == (1, 3)

    def test_metrics_reuse_ratio(self):
        # LocalPlatform.multiplexer_reuse_ratio divides these two counts.
        multiplexer = ResourceMultiplexer()
        assert multiplexer.stats.lookups == 0
        multiplexer.get_or_create(slow_factory, "x")
        multiplexer.get_or_create(slow_factory, "x")
        multiplexer.get_or_create(slow_factory, "x")
        metrics = multiplexer.stats
        assert (metrics.hits + metrics.in_flight_waits, metrics.lookups) \
            == (2, 3)


class TestHashArguments:
    def test_unhashable_rejected(self):
        with pytest.raises(MultiplexerError):
            hash_arguments(([1, 2],), {})

    def test_kwarg_order_irrelevant(self):
        assert hash_arguments((), {"a": 1, "b": 2}) == \
            hash_arguments((), {"b": 2, "a": 1})

    @settings(max_examples=100, deadline=None)
    @given(args=st.tuples(st.integers(), st.text(max_size=10)),
           kwargs=st.dictionaries(
               st.sampled_from(["k1", "k2", "k3"]),
               st.integers(), max_size=3))
    def test_hash_is_deterministic(self, args, kwargs):
        assert hash_arguments(args, kwargs) == hash_arguments(args, dict(kwargs))
