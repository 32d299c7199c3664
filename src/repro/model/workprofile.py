"""Work profiles: what one invocation actually *does*.

A :class:`WorkProfile` is an ordered list of segments, each of which the
container executor knows how to run:

* :class:`CpuWork` — burn core-milliseconds on the container's CPU share
  (e.g. computing a Fibonacci number, the paper's CPU-intensive benchmark).
* :class:`IoWait` — wait without consuming CPU (network RTT to object
  storage).
* :class:`ClientCreation` — construct a cloud-storage socket client.  This is
  the segment the Resource Multiplexer intercepts: with multiplexing the
  first creation per (factory, args-hash) pays the full cost and everyone
  else reuses the cached instance (§III-D).

Profiles are *descriptions*; all costs are resolved by the container at
execution time against the platform's :class:`~repro.model.calibration.Calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union


@dataclass(frozen=True)
class CpuWork:
    """Burn *core_ms* of CPU work on the container's share."""

    core_ms: float

    def __post_init__(self) -> None:
        if self.core_ms < 0:
            raise ValueError(f"negative CPU work: {self.core_ms}")


@dataclass(frozen=True)
class IoWait:
    """Wait *wait_ms* without consuming CPU (e.g. a blob GET round trip)."""

    wait_ms: float

    def __post_init__(self) -> None:
        if self.wait_ms < 0:
            raise ValueError(f"negative IO wait: {self.wait_ms}")


@dataclass(frozen=True)
class ClientCreation:
    """Create (or reuse) a storage client.

    ``factory`` names the client constructor (e.g. ``"boto3.client"``) and
    ``args_hash`` stands for ``Hash(args)`` from §III-D — invocations that
    pass the same creation arguments share a cache entry.
    """

    factory: str
    args_hash: int


Segment = Union[CpuWork, IoWait, ClientCreation]


class WorkProfile:
    """An ordered, immutable sequence of work segments."""

    def __init__(self, segments: Sequence[Segment]) -> None:
        if not segments:
            raise ValueError("a work profile needs at least one segment")
        for segment in segments:
            if not isinstance(segment, (CpuWork, IoWait, ClientCreation)):
                raise TypeError(f"unknown segment type: {segment!r}")
        self._segments: Tuple[Segment, ...] = tuple(segments)

    def __iter__(self):
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:
        return f"WorkProfile({list(self._segments)!r})"


#: CPU work (core-ms) a CPU-bound handler spends before its own work.
CPU_OVERHEAD_MS = 0.0
#: The I/O handler's own marshalling work after the storage round trip.
IO_POST_CPU_MS = 1.0


def cpu_profile(core_ms: float) -> WorkProfile:
    """A pure CPU-bound profile (the paper's ``fib`` functions), after
    :data:`CPU_OVERHEAD_MS` of overhead."""
    segments: list = []
    if CPU_OVERHEAD_MS > 0:
        segments.append(CpuWork(CPU_OVERHEAD_MS))
    segments.append(CpuWork(core_ms))
    return WorkProfile(segments)


def io_profile(factory: str, args_hash: int,
               blob_wait_ms: float) -> WorkProfile:
    """The paper's I/O function: create an S3 client, then one blob op,
    then :data:`IO_POST_CPU_MS` of marshalling."""
    return WorkProfile([
        ClientCreation(factory=factory, args_hash=args_hash),
        IoWait(blob_wait_ms),
        CpuWork(IO_POST_CPU_MS),
    ])
