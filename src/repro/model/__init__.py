"""Platform model: calibration, functions, containers, pool, docker, storage."""

from repro.model.calibration import Calibration, DEFAULT_CALIBRATION
from repro.model.container import ContainerState, SimContainer
from repro.model.docker import ContainerHandle, SimDockerClient
from repro.model.function import (
    FunctionKind,
    FunctionSpec,
    Invocation,
    InvocationState,
    LatencyBreakdown,
)
from repro.model.pool import ContainerPool
from repro.model.storage import ClientInstance, StorageClientCostModel
from repro.model.workprofile import (
    ClientCreation,
    CpuWork,
    IoWait,
    WorkProfile,
    cpu_profile,
    io_profile,
)

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
