"""Stress/property tests for the DES kernel: random process structures."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.primitives import Resource, Store


class TestRandomProcessTrees:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.integers(1, 6),
           depth=st.integers(1, 4))
    def test_nested_fork_join_completes(self, seed, width, depth):
        """Random fork/join trees always run to completion, and every leaf
        observes a time >= its cumulative delays."""
        rng = random.Random(seed)
        env = Environment()
        leaf_times = []

        def node(level):
            delay = rng.uniform(0.0, 10.0)
            yield env.timeout(delay)
            if level >= depth:
                leaf_times.append(env.now)
                return 1
            children = [env.process(node(level + 1))
                        for _ in range(rng.randint(1, width))]
            values = yield env.all_of(children)
            return sum(values)

        root = env.process(node(0))
        total = env.run_process(root)
        assert total == len(leaf_times)
        assert all(t >= 0.0 for t in leaf_times)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), workers=st.integers(1, 8),
           items=st.integers(1, 30))
    def test_producer_consumer_conserves_items(self, seed, workers, items):
        rng = random.Random(seed)
        env = Environment()
        store: Store[int] = Store(env)
        consumed = []

        def producer():
            for item in range(items):
                yield env.timeout(rng.uniform(0.0, 5.0))
                store.put(item)

        def consumer():
            while len(consumed) < items:
                value = yield store.get()
                consumed.append(value)
                yield env.timeout(rng.uniform(0.0, 3.0))

        env.process(producer())
        for _ in range(workers):
            env.process(consumer())
        env.run()
        assert sorted(consumed) == list(range(items))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), capacity=st.integers(1, 4),
           tasks=st.integers(1, 20))
    def test_resource_never_oversubscribed(self, seed, capacity, tasks):
        rng = random.Random(seed)
        env = Environment()
        resource = Resource(env, capacity=capacity)
        held, peak = [0], [0]

        def worker():
            request = resource.request()
            yield request
            held[0] += 1
            peak[0] = max(peak[0], held[0])
            yield env.timeout(rng.uniform(0.1, 5.0))
            held[0] -= 1
            request.release()

        for _ in range(tasks):
            env.process(worker())
        env.run()
        assert peak[0] <= capacity
        assert not resource._waiting  # nobody left waiting

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), events=st.integers(2, 40))
    def test_time_never_goes_backwards(self, seed, events):
        rng = random.Random(seed)
        env = Environment()
        observed = []

        def observer(delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for _ in range(events):
            env.process(observer(rng.uniform(0.0, 100.0)))
        env.run()
        assert observed == sorted(observed)
        assert len(observed) == events
