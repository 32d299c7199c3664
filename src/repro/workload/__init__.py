"""Workload synthesis from the paper's published Azure-trace characteristics."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.workload.arrivals": (
        "Burst", "bursty_arrivals", "per_second_counts"),
    "repro.workload.azure": (
        "IO_REPLAY_INVOCATIONS", "REPLAY_TOTAL_INVOCATIONS",
        "DailyPatternGenerator", "iter_tiled_replay_arrivals",
        "replay_minute_arrivals", "tiled_replay_tile_count"),
    "repro.workload.blob": (
        "BlobIatModel", "combined_model", "day_model", "iat_cdf"),
    "repro.workload.durations": (
        "DURATION_BUCKETS", "FIB_DURATION_MS", "DurationSampler",
        "bucket_probabilities", "duration_bucket_index",
        "empirical_bucket_fractions", "fib_duration_ms"),
    "repro.workload.generator": (
        "FIB_FUNCTION_ID", "IO_FUNCTION_ID", "cpu_workload_trace",
        "fib_family_specs", "fib_function_spec", "io_function_spec",
        "io_workload_trace", "tiled_fib_stream"),
    "repro.workload.trace": (
        "Trace", "TraceRecord", "TraceStream"),
})

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
    "iter_tiled_replay_arrivals",
    "per_second_counts",
    "replay_minute_arrivals",
    "tiled_fib_stream",
    "tiled_replay_tile_count",
]
