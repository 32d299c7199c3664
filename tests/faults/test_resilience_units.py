"""Unit coverage: backoff schedule math and the circuit-breaker machine."""

from __future__ import annotations

import random

import pytest

from repro.faults import resilience
from repro.faults.resilience import (
    BackoffSchedule,
    BreakerState,
    CircuitBreaker,
    ResiliencePolicy,
)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        ResiliencePolicy()

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_base_ms": -1.0},
        {"max_attempts": -1},
        {"backoff_base_ms": 2000.5},
        {"backoff_base_ms": -0.001},
        {"max_attempts": 0, "backoff_base_ms": 10.0},
        {"max_attempts": 1, "backoff_base_ms": -5.0},
        {"max_attempts": 2, "backoff_base_ms": 4000.0},
        {"backoff_base_ms": float("inf")},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)


class TestBackoffSchedule:
    def test_exponential_growth(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_CAP_MS", 1000.0)
        schedule = BackoffSchedule(ResiliencePolicy(backoff_base_ms=10.0))
        assert schedule.base_delay_ms(1) == 10.0
        assert schedule.base_delay_ms(2) == 20.0
        assert schedule.base_delay_ms(3) == 40.0

    def test_cap_applies(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_FACTOR", 10.0)
        monkeypatch.setattr(resilience, "BACKOFF_CAP_MS", 500.0)
        schedule = BackoffSchedule(ResiliencePolicy(backoff_base_ms=10.0))
        assert schedule.base_delay_ms(3) == 500.0
        assert schedule.base_delay_ms(10) == 500.0

    def test_attempt_must_be_positive(self):
        schedule = BackoffSchedule(ResiliencePolicy())
        with pytest.raises(ValueError):
            schedule.base_delay_ms(0)

    def test_jitter_bounds(self, monkeypatch):
        monkeypatch.setattr(resilience, "JITTER_RATIO", 0.2)
        monkeypatch.setattr(resilience, "BACKOFF_FACTOR", 1.0)
        policy = ResiliencePolicy(backoff_base_ms=100.0)
        schedule = BackoffSchedule(policy)
        rng = random.Random(5)
        for _ in range(50):
            delay = schedule.delay_ms(1, rng)
            assert 100.0 <= delay <= 120.0

    def test_jitter_deterministic_per_seed(self, monkeypatch):
        monkeypatch.setattr(resilience, "JITTER_RATIO", 0.3)
        schedule = BackoffSchedule(ResiliencePolicy())
        first = [schedule.delay_ms(a, random.Random(9)) for a in (1, 2, 3)]
        second = [schedule.delay_ms(a, random.Random(9)) for a in (1, 2, 3)]
        assert first == second

    def test_zero_jitter_is_exact(self, monkeypatch):
        monkeypatch.setattr(resilience, "JITTER_RATIO", 0.0)
        schedule = BackoffSchedule(ResiliencePolicy())
        assert schedule.delay_ms(1, random.Random(1)) == \
            schedule.base_delay_ms(1)


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=1000.0):
        return CircuitBreaker(failure_threshold=threshold,
                              cooldown_ms=cooldown)

    def test_stays_closed_below_threshold(self):
        breaker = self.make()
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(1.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(2.0)

    def test_opens_at_threshold(self):
        breaker = self.make()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.record_failure(2.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(2.0)

    def test_success_resets_consecutive_count(self):
        breaker = self.make()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success()
        breaker.record_failure(2.0)
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_admits_single_probe(self):
        breaker = self.make(cooldown=100.0)
        for t in range(3):
            breaker.record_failure(float(t))
        assert not breaker.allow(50.0)          # still cooling down
        assert breaker.allow(200.0)             # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(200.0)         # only one probe at a time

    def test_probe_success_closes(self):
        breaker = self.make(cooldown=100.0)
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.allow(200.0)
        assert breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(201.0)

    def test_probe_failure_reopens(self):
        breaker = self.make(cooldown=100.0)
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.allow(200.0)
        assert breaker.record_failure(200.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(250.0)         # new cooldown from reopen
        assert breaker.allow(350.0)             # cooled down again

    def test_transition_count(self):
        breaker = self.make(cooldown=100.0)
        for t in range(3):
            breaker.record_failure(float(t))    # closed -> open
        breaker.allow(200.0)                    # open -> half-open
        breaker.record_success()                # half-open -> closed
        assert breaker.transitions == 3
