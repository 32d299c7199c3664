"""The worker machine: CPU + memory + a 1 Hz resource sampler.

The paper's evaluation runs on "a large worker VM with 32 vCPUs and 64 GB
memory" and samples host resource utilisation "at a frequency of once per
second" (§V-B).  :class:`Machine` bundles a CPU model (fair-share by default,
SFS optionally), a memory account and a periodic sampler that produces the
series behind Figs. 13 and 14.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.common.units import SECOND, gigabytes
from repro.sim.engine import CpuEngine
from repro.sim.fair_share import FairShareCpu
from repro.sim.kernel import Environment
from repro.sim.memory import MemoryAccount
from repro.sim.sfs_cpu import SfsCpu

#: Anything satisfying the CpuEngine protocol (kept under the historical
#: alias so annotations across platformsim/ and cluster/ stay valid).
CpuService = CpuEngine


class CpuDiscipline(enum.Enum):
    """Which CPU scheduling discipline a worker machine runs.

    Every policy in the paper runs on the kernel's fair-share scheduling
    except SFS, which installs its own user-space discipline.
    """

    FAIR_SHARE = "fair-share"
    SFS = "sfs"


def build_cpu(env: Environment, discipline: "CpuDiscipline",
              cores: int) -> CpuEngine:
    """Construct the CPU service implementing *discipline*."""
    if discipline is CpuDiscipline.SFS:
        return SfsCpu(env, cores)
    return FairShareCpu(env, cores)


#: The resource sampler's period: the paper samples at 1 Hz.
SAMPLE_PERIOD_MS = SECOND


@dataclass(frozen=True)
class ResourceSample:
    """One periodic host observation (the paper samples at 1 Hz)."""

    time_ms: float
    memory_mb: float
    cpu_utilization: float  # in [0, 1]
    cpu_busy_core_ms: float  # cumulative


class Machine:
    """A single worker VM with CPU, memory and periodic sampling."""

    def __init__(self, env: Environment,
                 cores: int = 32,
                 memory_gb: float = 64.0,
                 cpu: Optional[CpuService] = None,
                 strict_memory: bool = True) -> None:
        self.env = env
        self.cores = cores
        self.cpu: CpuService = cpu if cpu is not None else FairShareCpu(env, cores)
        self.memory = MemoryAccount(env, capacity_mb=gigabytes(memory_gb),
                                    strict=strict_memory)
        self._samples: List[ResourceSample] = []
        self._sampling = False

    # -- sampling ------------------------------------------------------------

    def start_sampler(self, horizon_ms: float) -> None:
        """Sample resources every period until *horizon_ms* of run time."""
        if self._sampling:
            return
        self._sampling = True
        self.env.process(self._sample_loop(horizon_ms), name="machine-sampler")

    def _sample_loop(self, horizon_ms: float):
        deadline = self.env.now + horizon_ms
        while self.env.now <= deadline:
            self._samples.append(ResourceSample(
                time_ms=self.env.now,
                memory_mb=self.memory.used_mb,
                cpu_utilization=self.cpu.utilization(),
                cpu_busy_core_ms=self.cpu.busy_core_ms()))
            yield self.env.timeout(SAMPLE_PERIOD_MS)

    def samples(self) -> List[ResourceSample]:
        """The recorded 1 Hz observations."""
        return list(self._samples)
