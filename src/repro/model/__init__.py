"""Platform model: calibration, functions, containers, pool, docker, storage."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.model.calibration": ("Calibration", "DEFAULT_CALIBRATION"),
    "repro.model.container": ("ContainerState", "SimContainer"),
    "repro.model.docker": ("ContainerHandle", "SimDockerClient"),
    "repro.model.function": (
        "FunctionKind", "FunctionSpec", "Invocation", "InvocationState",
        "LatencyBreakdown"),
    "repro.model.pool": ("ContainerPool",),
    "repro.model.storage": ("ClientInstance", "StorageClientCostModel"),
    "repro.model.workprofile": (
        "ClientCreation", "CpuWork", "IoWait", "WorkProfile", "cpu_profile",
        "io_profile"),
})

__all__ = [
    "Calibration",
    "ClientCreation",
    "ClientInstance",
    "ContainerHandle",
    "ContainerPool",
    "ContainerState",
    "CpuWork",
    "DEFAULT_CALIBRATION",
    "FunctionKind",
    "FunctionSpec",
    "Invocation",
    "InvocationState",
    "IoWait",
    "LatencyBreakdown",
    "SimContainer",
    "SimDockerClient",
    "StorageClientCostModel",
    "WorkProfile",
    "cpu_profile",
    "io_profile",
]
