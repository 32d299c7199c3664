"""FaaSBatch core: Invoke Mapper, Inline-Parallel Producer, Resource Multiplexer."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.core.config": (
        "DEFAULT_WINDOW_MS", "SWEEP_WINDOWS_MS", "FaaSBatchConfig"),
    "repro.core.mapper": ("FunctionGroup", "InvokeMapper"),
    "repro.core.multiplexer": (
        "Lookup", "LookupOutcome", "MultiplexerStats",
        "SimResourceMultiplexer"),
    "repro.core.producer": ("InlineParallelProducer",),
    "repro.core.scheduler": ("FaaSBatchScheduler",),
})

__all__ = [
    "DEFAULT_WINDOW_MS",
    "FaaSBatchConfig",
    "FaaSBatchScheduler",
    "FunctionGroup",
    "InlineParallelProducer",
    "InvokeMapper",
    "Lookup",
    "LookupOutcome",
    "MultiplexerStats",
    "SWEEP_WINDOWS_MS",
    "SimResourceMultiplexer",
]
