"""Shared primitives: errors, units, ids, statistics, tables."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.common.cdf": ("CdfPoint", "EmpiricalCdf"),
    "repro.common.errors": (
        "CapacityExceeded", "ConfigurationError", "ContainerError",
        "ContainerNotFound", "ContainerStateError", "EventAlreadyTriggered",
        "FunctionNotRegistered", "MultiplexerError", "ProcessInterrupted",
        "ReproError", "SchedulingError", "SimulationError", "WorkloadError"),
    "repro.common.ids": ("IdFactory",),
    "repro.common.stats": ("Ewma", "SampleStats", "mean", "percentile"),
    "repro.common.tables": ("render_table", "to_csv"),
})

__all__ = [
    "CapacityExceeded",
    "CdfPoint",
    "ConfigurationError",
    "ContainerError",
    "ContainerNotFound",
    "ContainerStateError",
    "EmpiricalCdf",
    "EventAlreadyTriggered",
    "Ewma",
    "FunctionNotRegistered",
    "IdFactory",
    "MultiplexerError",
    "ProcessInterrupted",
    "ReproError",
    "SampleStats",
    "SchedulingError",
    "SimulationError",
    "WorkloadError",
    "mean",
    "percentile",
    "render_table",
    "to_csv",
]
