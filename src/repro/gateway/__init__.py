"""Live serving tier: asyncio HTTP gateway over the local runtime.

The simulator (:mod:`repro.platformsim`) validates the FaaSBatch policy;
this package proves it *serves*: real dispatch windows on live requests,
admission control and load shedding under overload, wall-clock retries
and timeouts via the platform's resilience knobs, and graceful
degradation to vanilla dispatch when batching stops winning.  A seeded
open-loop load generator (``repro loadgen``) publishes results into the
bench artifact (``gateway_cells``, schema v4) and the HTML report.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.gateway.admission": (
        "SHED_INFLIGHT", "SHED_QUEUE_DEPTH", "AdmissionConfig",
        "AdmissionController"),
    "repro.gateway.batching": ("FunctionBatcher", "PendingRequest"),
    "repro.gateway.degradation": (
        "MODE_BATCH", "MODE_VANILLA", "DegradationConfig",
        "DegradationMonitor"),
    "repro.gateway.functions": (
        "DEFAULT_CLIENT_COST_SECONDS", "DEMO_FUNCTIONS", "demo_platform",
        "make_handlers"),
    "repro.gateway.harness": (
        "POLICY_CELLS", "CellSpec", "build_stack", "platform_config_for",
        "run_cell"),
    "repro.gateway.loadgen": (
        "Arrival", "HttpPool", "LoadgenConfig", "LoadResult", "RequestSample",
        "build_phased_schedule", "build_schedule", "run_http", "run_inproc"),
    "repro.gateway.server": (
        "Gateway", "GatewayConfig", "GatewayResponse", "GatewayServer"),
})

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "Arrival",
    "CellSpec",
    "DEFAULT_CLIENT_COST_SECONDS",
    "DEMO_FUNCTIONS",
    "DegradationConfig",
    "DegradationMonitor",
    "FunctionBatcher",
    "Gateway",
    "GatewayConfig",
    "GatewayResponse",
    "GatewayServer",
    "HttpPool",
    "LoadResult",
    "LoadgenConfig",
    "MODE_BATCH",
    "MODE_VANILLA",
    "PendingRequest",
    "POLICY_CELLS",
    "RequestSample",
    "SHED_INFLIGHT",
    "SHED_QUEUE_DEPTH",
    "build_phased_schedule",
    "build_schedule",
    "build_stack",
    "demo_platform",
    "make_handlers",
    "platform_config_for",
    "run_cell",
    "run_http",
    "run_inproc",
]
