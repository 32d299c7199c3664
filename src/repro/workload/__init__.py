"""Workload synthesis from the paper's published Azure-trace characteristics."""

from repro.workload.arrivals import (
    Burst,
    bursty_arrivals,
    iter_poisson_arrivals,
    per_second_counts,
)
from repro.workload.azure import (
    IO_REPLAY_INVOCATIONS,
    REPLAY_TOTAL_INVOCATIONS,
    DailyPatternGenerator,
    iter_tiled_replay_arrivals,
    replay_minute_arrivals,
    tiled_replay_tile_count,
)
from repro.workload.blob import (
    BlobIatModel,
    combined_model,
    day_model,
    iat_cdf,
)
from repro.workload.durations import (
    DURATION_BUCKETS,
    FIB_DURATION_MS,
    DurationSampler,
    bucket_probabilities,
    duration_bucket_index,
    empirical_bucket_fractions,
    fib_duration_ms,
)
from repro.workload.generator import (
    FIB_FUNCTION_ID,
    IO_FUNCTION_ID,
    cpu_workload_trace,
    fib_family_specs,
    fib_function_spec,
    io_function_spec,
    io_workload_trace,
    multi_function_trace,
    tiled_fib_stream,
)
from repro.workload.trace import Trace, TraceLike, TraceRecord, TraceStream

__all__ = [
    "Burst",
    "BlobIatModel",
    "DURATION_BUCKETS",
    "DailyPatternGenerator",
    "DurationSampler",
    "FIB_DURATION_MS",
    "FIB_FUNCTION_ID",
    "IO_FUNCTION_ID",
    "IO_REPLAY_INVOCATIONS",
    "REPLAY_TOTAL_INVOCATIONS",
    "Trace",
    "TraceLike",
    "TraceRecord",
    "TraceStream",
    "bucket_probabilities",
    "bursty_arrivals",
    "combined_model",
    "cpu_workload_trace",
    "day_model",
    "duration_bucket_index",
    "empirical_bucket_fractions",
    "fib_duration_ms",
    "fib_family_specs",
    "fib_function_spec",
    "iat_cdf",
    "io_function_spec",
    "io_workload_trace",
    "iter_poisson_arrivals",
    "iter_tiled_replay_arrivals",
    "multi_function_trace",
    "per_second_counts",
    "replay_minute_arrivals",
    "tiled_fib_stream",
    "tiled_replay_tile_count",
]
