"""Discrete-event simulation substrate: kernel, primitives, CPU, memory."""

from repro.sim.engine import (
    CpuEngine,
    CpuEngineBase,
    CpuGroup,
    CpuTask,
    waterfill,
)
from repro.sim.fair_share import FairShareCpu
from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.machine import (
    CpuDiscipline,
    CpuService,
    Machine,
    ResourceSample,
    build_cpu,
)
from repro.sim.memory import MemoryAccount, MemorySample
from repro.sim.primitives import Gate, Request, Resource, Store
from repro.sim.sfs_cpu import SfsCpu, SfsTask

__all__ = [
    "AllOf",
    "AnyOf",
    "CpuDiscipline",
    "CpuEngine",
    "CpuEngineBase",
    "CpuGroup",
    "build_cpu",
    "CpuService",
    "CpuTask",
    "Environment",
    "Event",
    "FairShareCpu",
    "Gate",
    "Machine",
    "MemoryAccount",
    "MemorySample",
    "Process",
    "Request",
    "Resource",
    "ResourceSample",
    "SfsCpu",
    "SfsTask",
    "Store",
    "Timeout",
    "waterfill",
]
