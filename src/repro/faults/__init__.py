"""Deterministic fault injection and resilience (repro.faults).

Two halves, usable independently:

* :mod:`repro.faults.plan` + :mod:`repro.faults.injector` — declarative,
  seeded :class:`FaultPlan`\\ s executed by a :class:`FaultInjector` against
  the simulated platform (container crashes, cold-start failures, straggler
  slowdowns, transient dispatch errors, OOM kills);
* :mod:`repro.faults.resilience` — the :class:`ResiliencePolicy` recovery
  layer the platform consults (bounded retries with exponential backoff and
  seeded jitter, and a per-function circuit breaker for repeated cold-start
  failures).

Everything is deterministic: the same seed replays the same faults and the
same jitter.  With no plan and no policy installed, the platform behaves
bit-identically to a build without this package (the zero-overhead-off
invariant, enforced by tests).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.plan": (
        "ColdStartFailureFault", "ContainerCrashFault", "DispatchErrorFault",
        "FaultPlan", "OomKillFault", "StragglerFault", "reference_plan"),
    "repro.faults.resilience": (
        "BackoffSchedule", "BreakerState", "CircuitBreaker",
        "ResilienceManager", "ResiliencePolicy"),
})

__all__ = [
    "BackoffSchedule",
    "BreakerState",
    "CircuitBreaker",
    "ColdStartFailureFault",
    "ContainerCrashFault",
    "DispatchErrorFault",
    "FaultInjector",
    "FaultPlan",
    "OomKillFault",
    "ResilienceManager",
    "ResiliencePolicy",
    "StragglerFault",
    "reference_plan",
]
