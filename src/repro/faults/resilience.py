"""Recovery policies: retries, timeouts, hedging, circuit breaking.

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

from repro.common.errors import (
    ColdStartRefused,
    HedgeCancelled,
    HedgeSuperseded,
    InvocationTimeout,
    TransientError,
)
from repro.model.function import FunctionSpec, Invocation

if TYPE_CHECKING:  # runtime import would cycle through platformsim
    from repro.model.container import SimContainer
    from repro.platformsim.platform import ServerlessPlatform


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the recovery layer (all deterministic given ``seed``).

    ``timeout_ms`` and ``hedge_after_ms`` default to off (None): timeouts
    abort and retry slow attempts, hedging races a duplicate instead —
    enabling both makes sense only with ``timeout_ms`` comfortably larger.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    backoff_factor: float = 2.0
    backoff_cap_ms: float = 2000.0
    jitter_ratio: float = 0.1
    timeout_ms: Optional[float] = None
    hedge_after_ms: Optional[float] = None
    breaker_failure_threshold: int = 3
    breaker_cooldown_ms: float = 5000.0
    #: Retry every failure, not just :class:`TransientError` subclasses.
    retry_all_errors: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_ms < 0:
            raise ValueError(
                f"backoff_base_ms must be >= 0, got {self.backoff_base_ms}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_cap_ms < self.backoff_base_ms:
            raise ValueError("backoff_cap_ms must be >= backoff_base_ms")
        if not 0.0 <= self.jitter_ratio <= 1.0:
            raise ValueError(
                f"jitter_ratio must be in [0, 1], got {self.jitter_ratio}")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {self.timeout_ms}")
        if self.hedge_after_ms is not None and self.hedge_after_ms <= 0:
            raise ValueError(
                f"hedge_after_ms must be > 0, got {self.hedge_after_ms}")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_ms <= 0:
            raise ValueError("breaker_cooldown_ms must be > 0")


class BackoffSchedule:
    """Exponential backoff with a cap and seeded proportional jitter."""

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy

    def base_delay_ms(self, attempt: int) -> float:
        """Deterministic (jitter-free) delay before retrying *attempt*+1.

        ``attempt`` is the attempt that just failed (1-based), so the first
        retry waits ``backoff_base_ms``, the second twice that, and so on,
        capped at ``backoff_cap_ms``.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        policy = self.policy
        raw = policy.backoff_base_ms * policy.backoff_factor ** (attempt - 1)
        return min(raw, policy.backoff_cap_ms)

    def delay_ms(self, attempt: int, rng: random.Random) -> float:
        """Backoff with jitter drawn from *rng* (full determinism per seed)."""
        base = self.base_delay_ms(attempt)
        if self.policy.jitter_ratio == 0.0:
            return base
        return base * (1.0 + self.policy.jitter_ratio * rng.random())


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
        self.timeouts_fired = 0
        self.hedges_launched = 0
        self.hedges_won = 0

    # -- retry ---------------------------------------------------------------------

    def _is_retryable(self, error: BaseException) -> bool:
        if isinstance(error, (HedgeSuperseded, HedgeCancelled)):
            return False
        return self.policy.retry_all_errors \
            or isinstance(error, TransientError)

    def should_retry(self, invocation: Invocation) -> bool:
        """Platform asks: intercept this failed completion for a retry?"""
        error = invocation.error
        if error is None or not self._is_retryable(error):
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

    # -- timeout / hedging watchdogs ---------------------------------------------

    def watch(self, invocation: Invocation,
              container: "SimContainer") -> None:
        """Arm the per-attempt watchdogs for a just-dispatched invocation."""
        if self.policy.timeout_ms is not None:
            self.env.process(
                self._watchdog(invocation, container, invocation.attempts),
                name=f"timeout:{invocation.trace_id}")
        if self.policy.hedge_after_ms is not None:
            self.env.process(
                self._hedger(invocation, container, invocation.attempts),
                name=f"hedge:{invocation.trace_id}")

    def _attempt_live(self, invocation: Invocation, attempt: int) -> bool:
        return (invocation.attempts == attempt
                and invocation.completed_ms is None
                and invocation.error is None)

    def _watchdog(self, invocation: Invocation, container: "SimContainer",
                  attempt: int):
        assert self.policy.timeout_ms is not None
        yield self.env.timeout(self.policy.timeout_ms)
        if not self._attempt_live(invocation, attempt):
            return
        error = InvocationTimeout(
            f"{invocation.invocation_id} attempt {attempt} exceeded "
            f"{self.policy.timeout_ms} ms")
        if container.abort_invocation(invocation.invocation_id, error):
            self.timeouts_fired += 1
            self.platform.obs.metrics.counter("resilience.timeouts").inc()
            if self.platform.obs.tracer.enabled:
                self.platform.obs.tracer.annotation(
                    "invocation-timeout", self.env.now,
                    invocation_id=invocation.invocation_id, attempt=attempt,
                    timeout_ms=self.policy.timeout_ms,
                    container_id=container.container_id)

    def _hedger(self, invocation: Invocation, container: "SimContainer",
                attempt: int):
        """Race a shadow copy on another container; first result wins."""
        assert self.policy.hedge_after_ms is not None
        yield self.env.timeout(self.policy.hedge_after_ms)
        if not self._attempt_live(invocation, attempt):
            return
        primary = container.inflight_process(invocation.invocation_id)
        if primary is None:
            return
        now = self.env.now
        # The shadow's arrival is stamped *before* the (possibly cold)
        # acquisition, so mark_dispatched's elapsed >= cold-start invariant
        # holds by construction.
        shadow = Invocation(
            invocation_id=f"{invocation.invocation_id}~h{attempt}",
            function=invocation.function,
            payload=invocation.payload,
            arrival_ms=now)
        self.hedges_launched += 1
        self.platform.obs.metrics.counter("resilience.hedges").inc()
        tracer = self.platform.obs.tracer
        if tracer.enabled:
            tracer.annotation(
                "hedge-launched", now,
                invocation_id=invocation.invocation_id, attempt=attempt,
                shadow_id=shadow.invocation_id)
        try:
            hedge_container, cold_ms = yield from \
                self.platform.acquire_container(
                    invocation.function, concurrency_limit=None,
                    with_multiplexer=False)
        except TransientError:
            return  # no spare capacity for the hedge; primary carries on
        shadow.mark_dispatched(self.env.now, cold_ms)
        if tracer.enabled:
            tracer.invocation_arrived(
                shadow.invocation_id, invocation.function.function_id,
                shadow.arrival_ms)
            tracer.invocation_dispatched(
                shadow.trace_id, self.env.now, cold_ms,
                hedge_container.container_id)
        shadow_proc = hedge_container.execute_invocations([shadow])[0]
        if primary.is_alive:
            winner, _value = yield self.env.any_of([primary, shadow_proc])
        else:
            winner = primary
        if winner is shadow_proc and shadow.error is None \
                and shadow.completed_ms is not None \
                and self._attempt_live(invocation, attempt):
            invocation.adopt_hedge_result(shadow)
            container.abort_invocation(
                invocation.invocation_id,
                HedgeSuperseded(
                    f"{shadow.invocation_id} beat "
                    f"{invocation.invocation_id} attempt {attempt}"))
            self.hedges_won += 1
            self.platform.obs.metrics.counter("resilience.hedge_wins").inc()
            if tracer.enabled:
                tracer.annotation(
                    "hedge-won", self.env.now,
                    invocation_id=invocation.invocation_id,
                    shadow_id=shadow.invocation_id)
        elif shadow_proc.is_alive:
            hedge_container.abort_invocation(
                shadow.invocation_id,
                HedgeCancelled(
                    f"{invocation.invocation_id} attempt {attempt} "
                    f"finished first"))
        if shadow_proc.is_alive:
            yield shadow_proc
        if tracer.enabled:
            tracer.invocation_responded(shadow.trace_id, self.env.now)
        if hedge_container.is_idle:
            self.platform.release_container(hedge_container)

    # -- circuit breaker ----------------------------------------------------------

    def _breaker(self, function_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(function_id)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy.breaker_failure_threshold,
                self.policy.breaker_cooldown_ms)
            self._breakers[function_id] = breaker
        return breaker

    def breaker_state(self, function_id: str) -> BreakerState:
        return self._breaker(function_id).state

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
