"""FaaSBatch reproduction (ICDCS 2023).

A full reimplementation of *"FaaSBatch: Enhancing the Efficiency of
Serverless Computing by Batching and Expanding Functions"*:

* :mod:`repro.core` — the paper's contribution: Invoke Mapper,
  Inline-Parallel Producer, Resource Multiplexer, and the assembled
  :class:`~repro.core.FaaSBatchScheduler`;
* :mod:`repro.baselines` — Vanilla, Kraken (SLO/slack batching), SFS
  (per-core adaptive time slices), Hiku (pull-based dispatch), DataDriven
  (runtime-estimate SPT) and the scheduling-policy registry that lets
  every surface select them by name;
* :mod:`repro.sim` / :mod:`repro.model` / :mod:`repro.platformsim` — the
  deterministic simulation substrate (DES kernel, two-level fair-share CPU,
  containers, warm pools, docker facade, experiment harness);
* :mod:`repro.workload` — Azure-trace-derived workload synthesis;
* :mod:`repro.local` — a real, threading FaaSBatch runtime with a genuine
  resource multiplexer you can embed;
* :mod:`repro.analysis` — figure/table regeneration utilities.

Quickstart::

    from repro import (FaaSBatchScheduler, VanillaScheduler,
                       run_experiment, cpu_workload_trace, fib_function_spec)

    trace = cpu_workload_trace(total=200)
    fib = fib_function_spec()
    ours = run_experiment(FaaSBatchScheduler(), trace, [fib])
    base = run_experiment(VanillaScheduler(), trace, [fib])
    print(ours.provisioned_containers, "vs", base.provisioned_containers)
"""

from repro.cluster import (
    ClusterResult,
    compare_balancers,
    run_cluster_experiment,
)
from repro.baselines import (
    DEFAULT_SCHEDULERS,
    DataDrivenScheduler,
    HikuScheduler,
    KrakenConfig,
    KrakenMode,
    KrakenParameters,
    KrakenScheduler,
    Scheduler,
    SchedulerBuild,
    SfsScheduler,
    VanillaScheduler,
    build_scheduler,
    registered_policies,
)
from repro.core import (
    FaaSBatchConfig,
    FaaSBatchScheduler,
    FunctionGroup,
    InlineParallelProducer,
    InvokeMapper,
    SimResourceMultiplexer,
)
from repro.local import (
    LocalPlatform,
    LocalPlatformConfig,
    ResourceMultiplexer,
)
from repro.model import (
    Calibration,
    DEFAULT_CALIBRATION,
    FunctionKind,
    FunctionSpec,
    Invocation,
)
from repro.common.eventlog import EventKind, EventLog
from repro.platformsim import (
    ExperimentResult,
    ServerlessPlatform,
    run_experiment,
)
from repro.workload.azurefile import AzureTraceBuilder
from repro.workload import (
    cpu_workload_trace,
    fib_function_spec,
    io_function_spec,
    io_workload_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AzureTraceBuilder",
    "Calibration",
    "ClusterResult",
    "EventKind",
    "EventLog",
    "compare_balancers",
    "run_cluster_experiment",
    "DEFAULT_CALIBRATION",
    "DEFAULT_SCHEDULERS",
    "DataDrivenScheduler",
    "ExperimentResult",
    "FaaSBatchConfig",
    "FaaSBatchScheduler",
    "FunctionGroup",
    "FunctionKind",
    "FunctionSpec",
    "HikuScheduler",
    "InlineParallelProducer",
    "Invocation",
    "InvokeMapper",
    "KrakenConfig",
    "KrakenMode",
    "KrakenParameters",
    "KrakenScheduler",
    "LocalPlatform",
    "LocalPlatformConfig",
    "ResourceMultiplexer",
    "Scheduler",
    "SchedulerBuild",
    "ServerlessPlatform",
    "SfsScheduler",
    "SimResourceMultiplexer",
    "VanillaScheduler",
    "__version__",
    "build_scheduler",
    "cpu_workload_trace",
    "fib_function_spec",
    "io_function_spec",
    "io_workload_trace",
    "registered_policies",
    "run_experiment",
]
