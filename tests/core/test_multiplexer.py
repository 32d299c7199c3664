"""Tests for the simulation-side Resource Multiplexer."""

from __future__ import annotations

import pytest

from repro.common.errors import MultiplexerError
from repro.core.multiplexer import (
    LookupOutcome,
    SimResourceMultiplexer,
)


@pytest.fixture
def multiplexer(env):
    return SimResourceMultiplexer(env)


class TestLookupProtocol:
    def test_first_lookup_is_miss(self, multiplexer):
        lookup = multiplexer.lookup("boto3", 42)
        assert lookup.outcome is LookupOutcome.MISS
        assert lookup.instance is None
        assert lookup.ready_event is None

    def test_commit_then_hit(self, multiplexer):
        lookup = multiplexer.lookup("boto3", 42)
        multiplexer.commit(lookup.key, "the-client")
        again = multiplexer.lookup("boto3", 42)
        assert again.outcome is LookupOutcome.HIT
        assert again.instance == "the-client"

    def test_concurrent_lookup_waits_in_flight(self, env, multiplexer):
        first = multiplexer.lookup("boto3", 42)
        second = multiplexer.lookup("boto3", 42)
        assert second.outcome is LookupOutcome.IN_FLIGHT
        received = []

        def waiter():
            instance = yield second.ready_event
            received.append(instance)

        env.process(waiter())
        multiplexer.commit(first.key, "shared")
        env.run()
        assert received == ["shared"]

    def test_distinct_keys_do_not_share(self, multiplexer):
        multiplexer.commit(multiplexer.lookup("boto3", 1).key, "a")
        lookup = multiplexer.lookup("boto3", 2)
        assert lookup.outcome is LookupOutcome.MISS

    def test_distinct_factories_do_not_share(self, multiplexer):
        multiplexer.commit(multiplexer.lookup("boto3", 1).key, "a")
        lookup = multiplexer.lookup("azure", 1)
        assert lookup.outcome is LookupOutcome.MISS

    def test_abort_propagates_and_allows_retry(self, env, multiplexer):
        first = multiplexer.lookup("boto3", 42)
        second = multiplexer.lookup("boto3", 42)
        failures = []

        def waiter():
            try:
                yield second.ready_event
            except RuntimeError as exc:
                failures.append(str(exc))

        env.process(waiter())
        multiplexer.abort(first.key, RuntimeError("credentials rejected"))
        env.run()
        assert failures == ["credentials rejected"]
        # The reservation is gone: the next lookup is a fresh miss.
        retry = multiplexer.lookup("boto3", 42)
        assert retry.outcome is LookupOutcome.MISS

    def test_commit_without_reservation_rejected(self, multiplexer):
        with pytest.raises(MultiplexerError):
            multiplexer.commit(("boto3", 42), "x")

    def test_unhashable_arguments_rejected(self, multiplexer):
        with pytest.raises(MultiplexerError):
            multiplexer.lookup("boto3", [1, 2, 3])


class TestIntrospection:
    def test_cached_instances_counts_completed_builds(self, multiplexer):
        """Only a committed build is cached: until then lookups wait."""
        building = multiplexer.lookup("boto3", 1)
        waiting = multiplexer.lookup("boto3", 1)
        assert waiting.outcome is LookupOutcome.IN_FLIGHT
        assert waiting.instance is None
        multiplexer.commit(building.key, "x")
        cached = multiplexer.lookup("boto3", 1)
        assert (cached.outcome, cached.instance) == (LookupOutcome.HIT, "x")
        assert multiplexer.stats.misses == 1


class TestStats:
    def test_counters(self, env, multiplexer):
        first = multiplexer.lookup("f", 1)
        multiplexer.lookup("f", 1)           # in-flight wait
        multiplexer.commit(first.key, "x")
        multiplexer.lookup("f", 1)           # hit
        stats = multiplexer.stats
        assert stats.misses == 1
        assert stats.in_flight_waits == 1
        assert stats.hits == 1
        assert stats.lookups == 3
