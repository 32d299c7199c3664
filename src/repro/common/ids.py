"""Deterministic identifier generation.

Simulations must be exactly reproducible, so identifiers are sequential and
namespaced (``container-17``, ``inv-203``) rather than random UUIDs.  Each
:class:`IdFactory` owns an independent counter per prefix; a platform run
creates one factory so that two runs with the same inputs produce identical
identifier streams.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict


class IdFactory:
    """Produces deterministic, namespaced, sequential identifiers."""

    def __init__(self) -> None:
        self._counters: DefaultDict[str, int] = defaultdict(int)

    def next(self, prefix: str) -> str:
        """Return the next identifier for *prefix*, e.g. ``"inv-0"``."""
        value = self._counters[prefix]
        self._counters[prefix] = value + 1
        return f"{prefix}-{value}"

    def count(self, prefix: str) -> int:
        """Return how many identifiers have been issued for *prefix*."""
        return self._counters[prefix]
