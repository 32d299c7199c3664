"""Trace builders that only the tests use.

:func:`multi_function_trace` spreads the replay minute over several fib
functions.  The engine goldens (``tests/data/engine_goldens.json``) take
its output as input, so its records must never change.
"""

from __future__ import annotations

from repro.workload.azure import REPLAY_TOTAL_INVOCATIONS, replay_minute_arrivals
from repro.workload.durations import DurationSampler
from repro.workload.generator import FIB_FUNCTION_ID
from repro.workload.trace import Trace, TraceRecord


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
