"""Trace records, streaming traces and CSV persistence.

A *trace* is the input to an experiment: a time-ordered sequence of
invocation requests (arrival timestamp, function id, payload).  Two
shapes exist:

* :class:`Trace` — fully materialized, sortable, indexable; right for the
  paper-scale workloads (hundreds to tens of thousands of records).
* :class:`TraceStream` — a *generator factory* plus metadata.  Iterating
  never materializes the records, so million-invocation replays run in
  bounded memory; each ``iter()`` call invokes the factory again, which is
  the deterministic-rewind contract (same factory ⇒ byte-identical record
  sequence every pass).  Passing a raw generator instead of a factory is
  rejected loudly — a generator silently yields nothing on its second
  consumption, exactly the bug class the factory contract exists to kill.

Both shapes provide ``len(trace)``, ``trace.end_ms`` and iteration over
time-ordered records, which is what a replay reads.
"""

from __future__ import annotations

import csv
import json
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.common.errors import WorkloadError


@dataclass(frozen=True)
class TraceRecord:
    """One invocation request in a workload trace."""

    arrival_ms: float
    function_id: str
    payload: object = None

    def __post_init__(self) -> None:
        if self.arrival_ms < 0:
            raise WorkloadError(f"negative arrival time: {self.arrival_ms}")
        if not self.function_id:
            raise WorkloadError("empty function_id")


class Trace:
    """A time-ordered, immutable sequence of :class:`TraceRecord`."""

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        ordered = sorted(records, key=lambda r: r.arrival_ms)
        if not ordered:
            raise WorkloadError("a trace needs at least one record")
        self._records: Sequence[TraceRecord] = tuple(ordered)

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def duration_ms(self) -> float:
        return self._records[-1].arrival_ms - self._records[0].arrival_ms

    @property
    def start_ms(self) -> float:
        """Absolute timestamp of the first arrival."""
        return self._records[0].arrival_ms

    @property
    def end_ms(self) -> float:
        """Absolute timestamp of the last arrival (replay runs until here)."""
        return self._records[-1].arrival_ms

    def head(self, count: int) -> "Trace":
        """The first *count* records (the paper's "first 400 invocations")."""
        if count <= 0:
            raise WorkloadError(f"count must be > 0, got {count}")
        return Trace(self._records[:count])

    def records(self) -> Sequence[TraceRecord]:
        return self._records

    # -- persistence ------------------------------------------------------------

    def to_csv(self, path: Path | str) -> None:
        """Write the trace as CSV (payloads JSON-encoded)."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["arrival_ms", "function_id", "payload_json"])
            for record in self._records:
                writer.writerow([record.arrival_ms, record.function_id,
                                 json.dumps(record.payload)])


class TraceStream:
    """A bounded-memory, deterministically re-iterable trace.

    ``factory`` is a zero-argument callable returning a *fresh* iterator of
    time-ordered :class:`TraceRecord`; ``count`` and ``end_ms`` are the
    synthesis-known totals the experiment runners need without consuming
    the stream.  Every ``iter()`` re-invokes the factory, so a stream can
    be replayed any number of times and always yields the identical
    sequence — and a factory that hands back the same exhausted iterator
    twice (the classic generator-reuse bug) raises instead of silently
    yielding nothing.
    """

    def __init__(self, factory: Callable[[], Iterator[TraceRecord]],
                 count: int, end_ms: float) -> None:
        if not callable(factory):
            raise WorkloadError(
                "TraceStream needs a generator *factory* (a callable "
                "returning a fresh iterator), not an iterator — a bare "
                "generator would silently yield nothing when consumed "
                "twice")
        if count < 1:
            raise WorkloadError(f"a trace needs at least one record, "
                                f"got count={count}")
        if end_ms < 0.0:
            raise WorkloadError(f"end_ms {end_ms} precedes the start, 0")
        self._factory = factory
        self._count = count
        self._end_ms = end_ms
        self._last_iterator: Optional[weakref.ref] = None

    def __iter__(self) -> Iterator[TraceRecord]:
        iterator = self._factory()
        if iterator is None or not hasattr(iterator, "__next__"):
            raise WorkloadError(
                "TraceStream factory must return an iterator")
        # A weakref (not id()) so a *collected* previous iterator whose id
        # got recycled is not mistaken for reuse.
        if self._last_iterator is not None and self._last_iterator() is iterator:
            raise WorkloadError(
                "TraceStream factory returned the same iterator object "
                "twice; it would be exhausted — return a fresh generator "
                "per call")
        try:
            self._last_iterator = weakref.ref(iterator)
        except TypeError:  # non-weakrefable iterators skip the guard
            self._last_iterator = None
        return self._checked(iterator)

    def _checked(self, iterator: Iterator[TraceRecord]
                 ) -> Iterator[TraceRecord]:
        """Validate ordering/count while streaming (O(1) state)."""
        yielded = 0
        previous = float("-inf")
        for record in iterator:
            if record.arrival_ms < previous:
                raise WorkloadError(
                    f"stream out of order: {record.arrival_ms} after "
                    f"{previous}")
            previous = record.arrival_ms
            yielded += 1
            if yielded > self._count:
                raise WorkloadError(
                    f"stream yielded more than its declared {self._count} "
                    "records")
            yield record
        if yielded != self._count:
            raise WorkloadError(
                f"stream yielded {yielded} records, declared {self._count}")

    def __len__(self) -> int:
        return self._count

    @property
    def start_ms(self) -> float:
        """Synthesis-declared start bound: replay begins at 0."""
        return 0.0

    @property
    def end_ms(self) -> float:
        """Upper bound on the last arrival (drain timeouts key off this)."""
        return self._end_ms

    @property
    def duration_ms(self) -> float:
        return self._end_ms

    def materialize(self) -> Trace:
        """Realize the whole stream as a :class:`Trace` (small inputs only)."""
        return Trace(self)
