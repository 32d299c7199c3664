"""Exception hierarchy for the FaaSBatch reproduction.

Every error raised by this library derives from :class:`ReproError`, so callers
can catch one type to shield themselves from the whole package.  The
sub-hierarchy mirrors the package layout: simulation-kernel faults, model
faults (containers, functions, storage), scheduling faults and configuration
faults are distinct so that tests and users can assert on precise failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid value was supplied for a configuration knob."""


class SimulationError(ReproError):
    """Base class for faults raised by the discrete-event kernel."""


class EventAlreadyTriggered(SimulationError):
    """An event was triggered (succeeded or failed) more than once."""


class ProcessInterrupted(SimulationError):
    """A simulated process was interrupted while waiting on an event.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.kernel.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class SchedulingError(ReproError):
    """A scheduler produced an inconsistent decision (internal invariant)."""


class ContainerError(ReproError):
    """Base class for container-lifecycle faults."""


class ContainerStateError(ContainerError):
    """A container operation was attempted in an illegal lifecycle state."""


class ContainerNotFound(ContainerError):
    """Lookup of a container by id failed."""


class FunctionNotRegistered(ReproError):
    """An invocation referenced a function id unknown to the platform."""


class CapacityExceeded(ReproError):
    """A resource request exceeded the machine's physical capacity."""


class WorkloadError(ReproError):
    """A workload description or trace file is malformed."""


class MultiplexerError(ReproError):
    """The resource multiplexer was misused (e.g. unhashable arguments)."""


class TransientError(ReproError):
    """A failure that is expected to succeed on retry.

    The resilience layer (:mod:`repro.faults`) retries invocations whose
    error derives from this class; application (handler) errors do not, so
    a buggy function is not retried into oblivion by default.
    """


class ContainerCrashed(TransientError):
    """The container executing the invocation crashed mid-flight."""


class OomKilled(ContainerCrashed):
    """The container was killed because machine memory crossed a threshold."""


class ColdStartError(TransientError):
    """A container could not be provisioned for this invocation."""


class ColdStartFailed(ColdStartError):
    """Provisioning ran (and its latency was paid) but the container died."""


class ColdStartRefused(ColdStartError):
    """The circuit breaker refused to provision (image quarantined)."""


class TransientDispatchError(TransientError):
    """The dispatch RPC to the container failed transiently."""


class InvocationTimeout(TransientError):
    """The invocation exceeded its per-attempt timeout and was aborted."""


class HedgeSuperseded(ReproError):
    """A hedged shadow won the race; the primary attempt is cancelled.

    Deliberately *not* transient: the invocation already succeeded via its
    hedge, so the aborted primary must not trigger a retry.
    """


class HedgeCancelled(ReproError):
    """The primary finished first; the hedged shadow is cancelled."""


class PlatformStateError(ReproError):
    """An operation hit a platform in an incompatible lifecycle state."""


class PlatformDraining(PlatformStateError):
    """Work was submitted while the platform drains toward shutdown."""


class PlatformStopped(PlatformStateError):
    """Work was submitted after the platform fully stopped."""


class GatewayOverloaded(ReproError):
    """The gateway shed this request under admission control (HTTP 429).

    ``retry_after_seconds`` is the backoff hint the HTTP layer surfaces
    as a ``Retry-After`` header.
    """

    def __init__(self, message: str,
                 retry_after_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds
