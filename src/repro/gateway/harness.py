"""Cell harness: build a serving stack, drive a seeded load, tear down.

One **cell** = one policy × one transport × one seeded load config,
served by a fresh demo platform + gateway.  The three stock policies:

* ``faasbatch`` — dispatch windows on, degradation monitor off (pure
  paper policy, the batching arm of the comparison);
* ``vanilla``   — zero window, serial containers, no multiplexer (the
  paper's baseline);
* ``adaptive``  — FaaSBatch windows plus the degradation monitor, free
  to flip to vanilla dispatch and back.

`repro loadgen` and the CI smoke both run through :func:`run_cell`, so
the committed artifact and the smoke artifact are the same code path.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.gateway.degradation import DegradationConfig
from repro.gateway.functions import demo_platform
from repro.gateway.loadgen import (
    LoadgenConfig,
    LoadResult,
    build_phased_schedule,
    build_schedule,
    run_http,
    run_inproc,
)
from repro.gateway.server import (
    AdmissionConfig,
    Gateway,
    GatewayConfig,
    GatewayServer,
)
from repro.local import LocalPlatform, LocalPlatformConfig
from repro.obs import Observability

POLICY_CELLS = ("faasbatch", "vanilla", "adaptive")
_TRANSPORTS = ("inproc", "http")

#: Every cell's containers cold-start in this long (seconds) ...
COLD_START_SECONDS = 0.002
#: ... and every request gets this many attempts.
MAX_ATTEMPTS = 2


@dataclass(frozen=True)
class CellSpec:
    """Everything needed to reproduce one load cell."""

    label: str
    policy: str
    load: LoadgenConfig
    #: Optional multi-phase traffic: when non-empty the schedule is the
    #: concatenation of these configs (``load`` still supplies the
    #: connection pool's size).  Shape-shifting traffic is what makes
    #: the degradation monitor flip and recover.
    phases: Tuple[LoadgenConfig, ...] = ()
    transport: str = "inproc"
    window_seconds: float = 0.02
    deadline_seconds: float = 5.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    request_timeout_seconds: Optional[float] = 2.0

    def __post_init__(self) -> None:
        if self.policy not in POLICY_CELLS:
            raise ConfigurationError(
                f"policy must be one of {POLICY_CELLS}, got {self.policy!r}")
        if self.transport not in _TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {_TRANSPORTS}, "
                f"got {self.transport!r}")


def platform_config_for(spec: CellSpec) -> LocalPlatformConfig:
    """The LocalPlatformConfig backing one cell's policy."""
    vanilla = spec.policy == "vanilla"
    return LocalPlatformConfig(
        container_concurrency=1 if vanilla else None,
        use_multiplexer=not vanilla,
        cold_start_seconds=COLD_START_SECONDS,
        request_timeout_seconds=spec.request_timeout_seconds,
        max_attempts=MAX_ATTEMPTS)


def build_stack(spec: CellSpec,
                obs: Optional[Observability] = None
                ) -> Tuple[LocalPlatform, Gateway]:
    """Fresh demo platform + gateway wired for *spec* (loop must exist).
    Only the ``adaptive`` policy runs the degradation monitor."""
    platform = demo_platform(platform_config_for(spec), obs=obs)
    gateway_policy = "vanilla" if spec.policy == "vanilla" else "faasbatch"
    config = GatewayConfig(
        policy=gateway_policy,
        window_seconds=(0.0 if spec.policy == "vanilla"
                        else spec.window_seconds),
        deadline_seconds=spec.deadline_seconds,
        admission=spec.admission,
        degradation=DegradationConfig(enabled=spec.policy == "adaptive"))
    return platform, Gateway(platform, config)


async def run_cell(spec: CellSpec,
                   obs: Optional[Observability] = None) -> LoadResult:
    """Serve one full cell: build, load, drain, tear down."""
    if spec.phases:
        schedule = build_phased_schedule(list(spec.phases))
    else:
        schedule = build_schedule(spec.load)
    platform, gateway = build_stack(spec, obs=obs)
    server: Optional[GatewayServer] = None
    try:
        if spec.transport == "http":
            server = GatewayServer(gateway, port=0)
            await server.start()
            result = await run_http(server, schedule, spec.label,
                                    spec.policy, spec.load)
        else:
            result = await run_inproc(gateway, schedule, spec.label,
                                      spec.policy, spec.load)
        # Let in-window stragglers finish before reading final stats.
        gateway.close()
        await asyncio.sleep(0)
        result.gateway_stats = gateway.stats()
        return result
    finally:
        if server is not None:
            await server.stop()
        await asyncio.get_event_loop().run_in_executor(
            None, platform.shutdown)
