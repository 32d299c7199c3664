"""Resource Multiplexer — simulation-side driver (§III-D).

The cache, its key, its hit / in-flight / miss states, failed-build
eviction and counters are :class:`repro.common.multiplexer.MultiplexerCore`,
shared with the live tier's threading multiplexer.  This driver adds only
the DES kernel's ``Event``: an in-flight creation waits on the builder's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.common.multiplexer import (
    Key,
    LookupOutcome,
    MultiplexerCore,
    hash_arguments,
)
from repro.sim.kernel import Environment, Event


@dataclass
class Lookup:
    """Result of :meth:`SimResourceMultiplexer.lookup`.

    Exactly one of ``instance`` (HIT), ``ready_event`` (IN_FLIGHT) or the
    obligation to call :meth:`SimResourceMultiplexer.commit`/``abort``
    (MISS) applies.
    """

    outcome: LookupOutcome
    key: Key
    instance: Optional[object] = None
    ready_event: Optional[Event] = None


class SimResourceMultiplexer(MultiplexerCore):
    """The core on the DES kernel: an in-flight build is an ``Event``."""

    def __init__(self, env: Environment) -> None:
        super().__init__(env.event)
        self.env = env

    def lookup(self, factory: str, args_hash: Hashable) -> Lookup:
        """Intercept a creation request for ``factory(args)``.

        Mirrors Fig. 8: search the cached mappings; on a miss the caller
        *must* later call :meth:`commit` (or :meth:`abort` on failure).
        """
        key = (factory, hash_arguments(args_hash))
        outcome, entry = self._lookup(key)
        if outcome is LookupOutcome.HIT:
            return Lookup(outcome, key, instance=entry.instance)
        if outcome is LookupOutcome.IN_FLIGHT:
            return Lookup(outcome, key, ready_event=entry.wait)
        return Lookup(outcome, key)

    def commit(self, key: Key, instance: object) -> None:
        """Publish the freshly built *instance* under *key*."""
        self._commit(key, instance).wait.succeed(instance)

    def abort(self, key: Key, error: BaseException) -> None:
        """A build failed: propagate to waiters and clear the reservation."""
        # Defused: a crash that kills the builder usually kills the waiters
        # too, so the broadcast may legitimately find nobody listening.
        self._abort(key, error).wait.fail(error).defuse()
