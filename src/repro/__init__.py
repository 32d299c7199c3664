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

from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _lazy_exports(namespace: Dict[str, Any],
                  exports: Dict[str, Tuple[str, ...]]
                  ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package facade.

    *exports* maps each defining module to the names the package
    re-exports from it.  A name's module is imported on its first read and
    the value is cached in *namespace* (the package's globals), so later
    reads never come back here.  Importing a package therefore costs only
    the modules its caller actually uses: the live gateway never loads the
    simulator, and ``import repro`` loads nothing else.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not ``importlib.import_module``: only the former
        # shows up in ``python -X importtime``.
        module = __import__(origin[name], fromlist=(name,))
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.baselines": (
        "DEFAULT_SCHEDULERS", "DataDrivenScheduler", "HikuScheduler",
        "KrakenConfig", "KrakenMode", "KrakenParameters", "KrakenScheduler",
        "Scheduler", "SchedulerBuild", "SfsScheduler", "VanillaScheduler",
        "build_scheduler", "registered_policies"),
    "repro.core": (
        "FaaSBatchConfig", "FaaSBatchScheduler", "FunctionGroup",
        "InlineParallelProducer", "InvokeMapper", "SimResourceMultiplexer"),
    "repro.local": (
        "LocalPlatform", "LocalPlatformConfig", "ResourceMultiplexer"),
    "repro.model": (
        "Calibration", "DEFAULT_CALIBRATION", "FunctionKind", "FunctionSpec",
        "Invocation"),
    "repro.platformsim": (
        "ExperimentResult", "ServerlessPlatform", "run_experiment"),
    "repro.workload": (
        "cpu_workload_trace", "fib_function_spec", "io_function_spec",
        "io_workload_trace"),
    "repro.workload.azurefile": ("AzureTraceBuilder",),
})

__all__ = [
    "AzureTraceBuilder",
    "Calibration",
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
