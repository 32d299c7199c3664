"""Tests for the memory account."""

from __future__ import annotations

import pytest

from repro.common.errors import CapacityExceeded, SimulationError
from repro.sim.memory import MemoryAccount


@pytest.fixture
def memory(env):
    return MemoryAccount(env, capacity_mb=100.0)


class TestAllocation:
    def test_allocate_and_free(self, memory):
        memory.allocate("a", 30.0)
        assert memory.used_mb == 30.0
        assert memory.free_mb == 70.0
        memory.free("a")
        assert memory.used_mb == 0.0

    def test_allocations_accumulate_per_owner(self, memory):
        memory.allocate("a", 10.0)
        memory.allocate("a", 15.0)
        assert memory.held_by("a") == 25.0

    def test_partial_free(self, memory):
        memory.allocate("a", 40.0)
        memory.free("a", 10.0)
        assert memory.held_by("a") == 30.0
        assert memory.used_mb == 30.0

    def test_peak_tracking(self, memory):
        memory.allocate("a", 60.0)
        memory.free("a")
        memory.allocate("b", 10.0)
        assert memory.peak_mb == 60.0

    def test_capacity_enforced_when_strict(self, memory):
        memory.allocate("a", 90.0)
        with pytest.raises(CapacityExceeded):
            memory.allocate("b", 20.0)

    def test_non_strict_allows_overcommit(self, env):
        memory = MemoryAccount(env, capacity_mb=10.0, strict=False)
        memory.allocate("a", 50.0)
        assert memory.used_mb == 50.0

    def test_free_unknown_owner_rejected(self, memory):
        with pytest.raises(SimulationError):
            memory.free("ghost")

    def test_over_free_rejected(self, memory):
        memory.allocate("a", 10.0)
        with pytest.raises(SimulationError):
            memory.free("a", 20.0)

    def test_negative_allocation_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.allocate("a", -1.0)

    def test_owners_snapshot(self, memory):
        memory.allocate("a", 5.0)
        memory.allocate("b", 7.0)
        assert memory.owners() == {"a": 5.0, "b": 7.0}


class TestUsageHooks:
    def test_usage_peak_and_hooks_stay_exact(self, env):
        """No per-change history is kept, but usage, peak and every
        hook call stay exact."""
        memory = MemoryAccount(env, capacity_mb=100.0)
        seen = []
        memory.add_usage_hook(seen.append)
        memory.allocate("a", 60.0)
        memory.free("a")
        memory.allocate("b", 10.0)
        assert memory.used_mb == 10.0
        assert memory.peak_mb == 60.0
        assert seen == [60.0, 0.0, 10.0]


class TestSeries:
    def test_invalid_capacity_rejected(self, env):
        with pytest.raises(ValueError):
            MemoryAccount(env, capacity_mb=0.0)
