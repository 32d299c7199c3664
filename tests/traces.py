"""Trace builders, and readers of traces, profiles and results, that only
the tests use.

:func:`multi_function_trace` spreads the replay minute over several fib
functions.  The engine goldens (``tests/data/engine_goldens.json``) take
its output as input, so its records must never change.
"""

from __future__ import annotations

import csv
import json

from repro.workload.azure import REPLAY_TOTAL_INVOCATIONS, replay_minute_arrivals
from repro.workload.durations import DurationSampler
from repro.model.workprofile import CpuWork, WorkProfile
from repro.workload.generator import FIB_FUNCTION_ID
from repro.workload.trace import Trace, TraceRecord


def function_ids(trace: Trace) -> list:
    """Distinct function ids of *trace*, in first-appearance order."""
    return list(dict.fromkeys(record.function_id for record in trace))


def cpu_work_ms(profile: WorkProfile) -> float:
    """Plain CPU work of *profile* (no client creations, no I/O)."""
    return sum(s.core_ms for s in profile if isinstance(s, CpuWork))


def read_trace_csv(path) -> list:
    """``(arrival_ms, function_id, payload)`` rows of a ``Trace.to_csv``
    file."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["arrival_ms", "function_id", "payload_json"]
    return [(float(arrival), function_id, json.loads(payload))
            for arrival, function_id, payload in rows]


def peak_memory_mb(result) -> float:
    """Largest sampled system memory of an ``ExperimentResult`` within
    its run window."""
    return max(s.memory_mb for s in result.samples
               if s.time_ms <= result.completion_ms)


def multi_function_trace(seed: int = 13,
                         total: int = REPLAY_TOTAL_INVOCATIONS,
                         functions: int = 4) -> Trace:
    """A variant spreading the replay across several fib-like functions.

    Used by tests to exercise the Invoke Mapper's per-function
    grouping (Fig. 6's λ_A / λ_B scenario).
    """
    if functions < 1:
        raise ValueError(f"functions must be >= 1, got {functions}")
    arrivals = replay_minute_arrivals(seed=seed, total=total)
    sampler = DurationSampler(seed=seed + 1)
    records = []
    for index, arrival in enumerate(arrivals):
        function_id = f"{FIB_FUNCTION_ID}-{index % functions}"
        records.append(TraceRecord(arrival_ms=arrival,
                                   function_id=function_id,
                                   payload=sampler.sample_fib_n()))
    return Trace(records)
