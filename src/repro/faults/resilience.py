"""Recovery policies: retries with backoff, and circuit breaking.

:class:`ResiliencePolicy` is pure configuration; :class:`ResilienceManager`
is the live object the platform consults.  Recovery is scheduler-agnostic:
a retried invocation is *re-enqueued through the platform's request queue*,
so it flows through whatever policy is running — re-batching with other
work under FaaSBatch/Kraken rather than taking a private fast path.

Determinism: backoff jitter comes from one seeded RNG consumed in event
order, so the same seed replays the same delays.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.common.errors import ColdStartRefused, TransientError
from repro.model.function import FunctionSpec, Invocation

if TYPE_CHECKING:  # runtime import would cycle through platformsim
    from repro.platformsim.platform import ServerlessPlatform


#: Each retry waits this many times longer than the one before ...
BACKOFF_FACTOR = 2.0
#: ... up to this delay (ms), before jitter.
BACKOFF_CAP_MS = 2000.0
#: Jitter stretches a delay by a seeded share in ``[0, JITTER_RATIO)``.
JITTER_RATIO = 0.1
#: Consecutive cold-start failures that open a function's breaker.
BREAKER_FAILURE_THRESHOLD = 3
#: How long (ms) an open breaker refuses before it admits a probe.
BREAKER_COOLDOWN_MS = 5000.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the recovery layer (all deterministic given ``seed``).

    Only :class:`TransientError` failures are retried.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_ms < 0:
            raise ValueError(
                f"backoff_base_ms must be >= 0, got {self.backoff_base_ms}")
        if self.backoff_base_ms > BACKOFF_CAP_MS:
            raise ValueError(
                f"backoff_base_ms must be <= {BACKOFF_CAP_MS}, "
                f"got {self.backoff_base_ms}")


class BackoffSchedule:
    """Exponential backoff with a cap and seeded proportional jitter."""

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy

    def base_delay_ms(self, attempt: int) -> float:
        """Deterministic (jitter-free) delay before retrying *attempt*+1.

        ``attempt`` is the attempt that just failed (1-based), so the first
        retry waits ``backoff_base_ms``, the second twice that, and so on,
        capped at :data:`BACKOFF_CAP_MS`.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = self.policy.backoff_base_ms * BACKOFF_FACTOR ** (attempt - 1)
        return min(raw, BACKOFF_CAP_MS)

    def delay_ms(self, attempt: int, rng: random.Random) -> float:
        """Backoff with jitter drawn from *rng* (full determinism per seed)."""
        return self.base_delay_ms(attempt) * (
            1.0 + JITTER_RATIO * rng.random())


class BreakerState(enum.Enum):
    """Circuit-breaker states (classic closed → open → half-open loop)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-function-image breaker quarantining repeated cold-start failures.

    ``allow()`` answers "may we attempt a cold start now?".  After
    ``failure_threshold`` consecutive failures the breaker opens and
    refuses; once ``cooldown_ms`` has elapsed the next ``allow()`` admits a
    single half-open probe — its outcome closes the breaker or re-opens it.
    """

    def __init__(self, failure_threshold: int, cooldown_ms: float) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms: Optional[float] = None
        self._probe_in_flight = False
        self.transitions = 0

    def allow(self, now_ms: float) -> bool:
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at_ms is not None
            if now_ms - self.opened_at_ms < self.cooldown_ms:
                return False
            self.state = BreakerState.HALF_OPEN
            self.transitions += 1
            self._probe_in_flight = True
            return True
        # HALF_OPEN: exactly one probe at a time.
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_failure(self, now_ms: float) -> bool:
        """Record a cold-start failure; returns True when the breaker opens."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_in_flight = False
            self.state = BreakerState.OPEN
            self.opened_at_ms = now_ms
            self.transitions += 1
            return True
        self.consecutive_failures += 1
        if self.state is BreakerState.CLOSED \
                and self.consecutive_failures >= self.failure_threshold:
            self.state = BreakerState.OPEN
            self.opened_at_ms = now_ms
            self.transitions += 1
            return True
        return False

    def record_success(self) -> bool:
        """Record a successful cold start; returns True when it closes."""
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probe_in_flight = False
            self.state = BreakerState.CLOSED
            self.opened_at_ms = None
            self.transitions += 1
            return True
        return False


class ResilienceManager:
    """The platform's live recovery engine (one per run)."""

    def __init__(self, platform: "ServerlessPlatform",
                 policy: ResiliencePolicy) -> None:
        self.platform = platform
        self.policy = policy
        self.env = platform.env
        self.rng = random.Random(policy.seed)
        self.backoff = BackoffSchedule(policy)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.retries_scheduled = 0
        self.retries_exhausted = 0

    # -- retry ---------------------------------------------------------------------

    def should_retry(self, invocation: Invocation) -> bool:
        """Platform asks: intercept this failed completion for a retry?"""
        error = invocation.error
        if not isinstance(error, TransientError):
            return False
        if invocation.attempts >= self.policy.max_attempts:
            self.retries_exhausted += 1
            self.platform.obs.metrics.counter(
                "resilience.retries_exhausted").inc()
            if self.platform.obs.tracer.enabled:
                self.platform.obs.tracer.annotation(
                    "retries-exhausted", self.env.now,
                    invocation_id=invocation.invocation_id,
                    attempts=invocation.attempts,
                    error=type(error).__name__)
            return False
        return True

    def schedule_retry(self, invocation: Invocation) -> float:
        """Archive the failed attempt and re-enqueue it after backoff.

        Returns the backoff delay.  The invocation re-enters the platform's
        request queue, so the running scheduler re-batches it like any new
        arrival.
        """
        error = invocation.error
        assert error is not None
        now = self.env.now
        tracer = self.platform.obs.tracer
        delay = self.backoff.delay_ms(invocation.attempts, self.rng)
        self.retries_scheduled += 1
        self.platform.obs.metrics.counter("resilience.retries").inc()
        if tracer.enabled:
            # Close the failed attempt's span timeline before its ids reset.
            tracer.invocation_responded(invocation.trace_id, now)
            tracer.annotation(
                "retry-scheduled", now,
                invocation_id=invocation.invocation_id,
                failed_attempt=invocation.attempts,
                delay_ms=delay,
                error=type(error).__name__)
        self.env.process(self._requeue_after(invocation, delay),
                         name=f"retry:{invocation.invocation_id}"
                              f"#a{invocation.attempts + 1}")
        return delay

    def _requeue_after(self, invocation: Invocation, delay_ms: float):
        yield self.env.timeout(delay_ms)
        invocation.reset_for_retry(self.env.now)
        self.platform.requeue(invocation)

    # -- circuit breaker ----------------------------------------------------------

    def _breaker(self, function_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(function_id)
        if breaker is None:
            breaker = CircuitBreaker(BREAKER_FAILURE_THRESHOLD,
                                     BREAKER_COOLDOWN_MS)
            self._breakers[function_id] = breaker
        return breaker

    def check_cold_start_allowed(self, function: FunctionSpec) -> None:
        """Raise :class:`ColdStartRefused` while the image is quarantined."""
        breaker = self._breakers.get(function.function_id)
        if breaker is None:
            return
        if not breaker.allow(self.env.now):
            self.platform.obs.metrics.counter(
                "resilience.breaker_refusals").inc()
            raise ColdStartRefused(
                f"circuit breaker open for {function.function_id!r}")

    def record_cold_start_failure(self, function_id: str) -> None:
        breaker = self._breaker(function_id)
        before = breaker.state
        breaker.record_failure(self.env.now)
        self._note_transition(function_id, before, breaker.state)

    def record_cold_start_success(self, function_id: str) -> None:
        breaker = self._breakers.get(function_id)
        if breaker is None:
            return  # never failed: keep the no-breaker fast path
        before = breaker.state
        breaker.record_success()
        self._note_transition(function_id, before, breaker.state)

    def _note_transition(self, function_id: str, before: BreakerState,
                         after: BreakerState) -> None:
        if before is after:
            return
        self.platform.obs.metrics.counter(
            "resilience.breaker_transitions").inc()
        if self.platform.obs.tracer.enabled:
            self.platform.obs.tracer.annotation(
                "breaker-transition", self.env.now,
                function_id=function_id,
                from_state=before.value, to_state=after.value)
