"""Discrete-event simulation substrate: kernel, primitives, CPU, memory."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.sim.engine": (
        "CpuEngine", "CpuEngineBase", "CpuGroup", "CpuTask"),
    "repro.sim.fair_share": ("FairShareCpu",),
    "repro.sim.kernel": (
        "AllOf", "AnyOf", "Environment", "Event", "Process", "Timeout"),
    "repro.sim.machine": (
        "CpuDiscipline", "CpuService", "Machine", "ResourceSample",
        "build_cpu"),
    "repro.sim.memory": ("MemoryAccount",),
    "repro.sim.primitives": ("Request", "Resource", "Store"),
    "repro.sim.sfs_cpu": ("SfsCpu", "SfsTask"),
})

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
    "Machine",
    "MemoryAccount",
    "Process",
    "Request",
    "Resource",
    "ResourceSample",
    "SfsCpu",
    "SfsTask",
    "Store",
    "Timeout",
]
