"""Workload generation: the paper's two benchmark workloads.

* **CPU-intensive workload** — the 800-invocation replay minute (Fig. 10),
  every invocation calling one ``fib`` function whose input N is sampled
  from the Fig. 9 duration distribution.
* **I/O workload** — the first 400 invocations of the same replay, each
  creating an AWS-S3-style client (Listing 1) and performing one blob
  operation.  All invocations use the same credentials, so their creation
  arguments hash identically — the multiplexer's sharing opportunity.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, Optional

from repro.model.calibration import Calibration, DEFAULT_CALIBRATION
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import WorkProfile, cpu_profile, io_profile
from repro.workload.azure import (
    IO_REPLAY_INVOCATIONS,
    REPLAY_DURATION_MS,
    REPLAY_TOTAL_INVOCATIONS,
    iter_tiled_replay_arrivals,
    replay_minute_arrivals,
    tiled_replay_tile_count,
)
from repro.workload.durations import DurationSampler, fib_duration_ms
from repro.workload.trace import Trace, TraceRecord, TraceStream

#: Stable creation-argument hash: every I/O invocation passes the same
#: (access key, secret, session token) tuple, like Listing 1.
S3_CREDENTIALS_HASH = hash(("ACCESS_KEY", "SECRET_KEY", "SESSION_TOKEN"))
S3_FACTORY = "boto3.client.s3"

FIB_FUNCTION_ID = "fib"
IO_FUNCTION_ID = "s3-io"


def fib_function_spec(cpu_limit: Optional[float] = None) -> FunctionSpec:
    """The CPU-intensive benchmark function: ``fib(N)``.

    The payload of each invocation is its input ``N``; the profile burns the
    calibrated duration of ``fib(N)`` as CPU work.
    """

    def profile(payload: object) -> WorkProfile:
        return cpu_profile(fib_duration_ms(int(payload)))  # type: ignore[arg-type]

    return FunctionSpec(function_id=FIB_FUNCTION_ID, kind=FunctionKind.CPU,
                        profile_factory=profile, cpu_limit=cpu_limit)


def io_function_spec(calibration: Calibration = DEFAULT_CALIBRATION,
                     cpu_limit: Optional[float] = None) -> FunctionSpec:
    """The I/O benchmark function: create an S3 client, do one blob op."""

    def profile(payload: object) -> WorkProfile:
        return io_profile(factory=S3_FACTORY,
                          args_hash=S3_CREDENTIALS_HASH,
                          blob_wait_ms=calibration.blob_operation_wait_ms)

    return FunctionSpec(function_id=IO_FUNCTION_ID, kind=FunctionKind.IO,
                        profile_factory=profile, cpu_limit=cpu_limit)


def cpu_workload_trace(seed: int = 13,
                       total: int = REPLAY_TOTAL_INVOCATIONS) -> Trace:
    """The CPU workload: *total* fib invocations over the replay minute."""
    arrivals = replay_minute_arrivals(seed=seed, total=total)
    sampler = DurationSampler(seed=seed + 1)
    return Trace(TraceRecord(arrival_ms=arrival,
                             function_id=FIB_FUNCTION_ID,
                             payload=sampler.sample_fib_n())
                 for arrival in arrivals)


def io_workload_trace(seed: int = 13,
                      total: int = IO_REPLAY_INVOCATIONS) -> Trace:
    """The I/O workload: the first *total* invocations of the replay minute.

    Matches §IV: "to evaluate the I/O functions, we make use of the first
    400 function invocations of the Azure trace".
    """
    full = replay_minute_arrivals(seed=seed, total=REPLAY_TOTAL_INVOCATIONS)
    arrivals = full[:total]
    return Trace(TraceRecord(arrival_ms=arrival,
                             function_id=IO_FUNCTION_ID,
                             payload=index)
                 for index, arrival in enumerate(arrivals))


# -- streaming synthesis -----------------------------------------------------
#
# The stream builds its RNG-bearing state (arrival synthesiser, duration
# sampler) *inside* the generator factory, so every iteration pass starts
# from the seed and replays the byte-identical sequence — the
# deterministic-rewind contract TraceStream enforces.


def tiled_fib_stream(invocations: int,
                     functions: int,
                     seed: int = 13,
                     tile_invocations: int = 4000,
                     function_ids: Optional[Collection[str]] = None,
                     ) -> TraceStream:
    """The scale scenario: bursty replay minutes tiled to *invocations*.

    Tile *t* draws arrivals seeded ``seed + t`` and payloads from a fresh
    ``DurationSampler(seed + 7919 * (t + 1))``; function ids are
    round-robined by global arrival rank.  The stream is O(one tile) in
    memory — this is what lets the 1.98 M-invocation Azure replay stream
    through a shard without ever existing as a list; the perf bench's
    ``bench_trace`` materializes it.

    With *function_ids* it yields only those functions' records, byte-
    identical to the full stream's; the others still draw their payload
    (keeping the sampler's sequence) but are never built.
    """
    counts = tiled_fib_function_counts(invocations, functions)
    kept = [function_id if function_ids is None
            or function_id in function_ids else None
            for function_id in counts]

    def records() -> Iterator[TraceRecord]:
        sampler: Optional[DurationSampler] = None
        for index, arrival in iter_tiled_replay_arrivals(
                total=invocations, tile_invocations=tile_invocations,
                seed=seed):
            if index % tile_invocations == 0:
                tile = index // tile_invocations
                sampler = DurationSampler(seed=seed + 7919 * (tile + 1))
            assert sampler is not None
            payload = sampler.sample_fib_n()
            function_id = kept[index % functions]
            if function_id is not None:
                yield TraceRecord(arrival_ms=arrival,
                                  function_id=function_id, payload=payload)

    tiles = tiled_replay_tile_count(invocations, tile_invocations)
    return TraceStream(records,
                       count=sum(counts[f] for f in kept if f is not None),
                       end_ms=tiles * REPLAY_DURATION_MS)


def tiled_fib_function_counts(invocations: int,
                              functions: int) -> Dict[str, int]:
    """Invocations per function id in :func:`tiled_fib_stream`.

    Closed form, O(*functions*): ids are round-robined by global arrival
    rank, so neither the seed nor the tile size changes the counts.
    """
    if functions < 1:
        raise ValueError(f"functions must be >= 1, got {functions}")
    base, extra = divmod(invocations, functions)
    return {f"{FIB_FUNCTION_ID}-{index}": base + (index < extra)
            for index in range(functions)}


def fib_family_specs(functions: int,
                     cpu_limit: Optional[float] = None) -> list:
    """Specs for the ``fib-<i>`` functions of :func:`tiled_fib_stream`."""

    def make_spec(function_id: str) -> FunctionSpec:
        def profile(payload: object) -> WorkProfile:
            return cpu_profile(fib_duration_ms(int(payload)))  # type: ignore[arg-type]
        return FunctionSpec(function_id=function_id, kind=FunctionKind.CPU,
                            profile_factory=profile, cpu_limit=cpu_limit)

    return [make_spec(f"{FIB_FUNCTION_ID}-{i}") for i in range(functions)]
