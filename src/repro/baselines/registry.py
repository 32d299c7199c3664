"""Scheduling-policy registry: one place that knows every scheduler.

Before this module existed, "the four schedulers" was a hard-coded
assumption replicated across the CLI, the bench harness, the sharded
cluster and the chaos suite; adding a baseline meant editing five files.
Now a policy registers once — name, report label, CPU discipline, config
class and a factory — and every surface discovers it here, selecting
subsets with ``--schedulers``.

A factory receives a :class:`SchedulerBuild` carrying the run-wide knobs
a policy may consume (dispatch window, Kraken's profiled parameters) and
returns a *fresh* scheduler instance; scheduler objects hold per-run
state, so one build context can safely construct a scheduler per
experiment.

Kraken is special: its parameters come from a prior Vanilla profiling
run ("we take the 98-percentile latency of each function obtained by the
Vanilla strategy as the function SLO"), flagged by
``needs_vanilla_profile`` so orchestration layers know to run (or reuse)
a Vanilla result first — and so surfaces with no parameter side channel
(the sharded cluster) can exclude it mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.baselines.base import CpuDiscipline, Scheduler
from repro.baselines.datadriven import DataDrivenScheduler
from repro.baselines.hiku import HikuScheduler
from repro.baselines.kraken import (
    KrakenConfig,
    KrakenParameters,
    KrakenScheduler,
)
from repro.baselines.sfs import SfsScheduler
from repro.baselines.vanilla import VanillaScheduler
from repro.common.errors import ConfigurationError
from repro.core.config import DEFAULT_WINDOW_MS, FaaSBatchConfig
from repro.core.scheduler import FaaSBatchScheduler

__all__ = [
    "DEFAULT_SCHEDULERS",
    "PolicyInfo",
    "SchedulerBuild",
    "build_scheduler",
    "parse_scheduler_names",
    "policy_info",
    "register_policy",
    "registered_policies",
    "scheduler_labels",
]


@dataclass(frozen=True)
class SchedulerBuild:
    """Run-wide knobs a policy factory may consume.

    One frozen context describes a whole comparison run; each factory
    picks the fields it understands and ignores the rest.
    """

    #: Dispatch window for the windowed policies (FaaSBatch, Kraken).
    window_ms: float = DEFAULT_WINDOW_MS
    #: Parameters learned from a Vanilla profiling run (Kraken only).
    kraken_parameters: Optional[KrakenParameters] = None


@dataclass(frozen=True)
class PolicyInfo:
    """Registry metadata for one scheduling policy."""

    #: Canonical lowercase registry key (what ``--schedulers`` accepts).
    name: str
    #: Report label — the scheduler's ``name`` attribute as it appears in
    #: every summary table, trace span and bench row.
    label: str
    #: CPU discipline the policy's worker machine uses.
    cpu_discipline: CpuDiscipline
    #: Fresh scheduler instance for one experiment run.
    factory: Callable[[SchedulerBuild], Scheduler]
    #: One-line description for docs and error messages.
    description: str = ""
    #: Configuration dataclass, if the policy has one (introspection only).
    config_class: Optional[type] = None
    #: True when the policy needs parameters from a prior Vanilla run.
    needs_vanilla_profile: bool = False

    def __post_init__(self) -> None:
        if self.name != self.name.lower():
            raise ConfigurationError(
                f"registry keys are lowercase, got {self.name!r}")


_REGISTRY: Dict[str, PolicyInfo] = {}


def register_policy(info: PolicyInfo) -> PolicyInfo:
    """Add *info* to the registry; names must be unique."""
    if info.name in _REGISTRY:
        raise ConfigurationError(
            f"scheduler {info.name!r} is already registered")
    _REGISTRY[info.name] = info
    return info


def registered_policies() -> Tuple[PolicyInfo, ...]:
    """Every registered policy, in registration (canonical report) order."""
    return tuple(_REGISTRY.values())


def policy_info(name: str) -> PolicyInfo:
    """Look up one policy by registry key or report label (case-blind)."""
    key = name.strip().lower()
    info = _REGISTRY.get(key)
    if info is None:
        known = ", ".join(_REGISTRY)
        raise ConfigurationError(
            f"unknown scheduler {name!r}; registered policies: {known}")
    return info


def build_scheduler(name: str, build: Optional[SchedulerBuild] = None,
                    ) -> Scheduler:
    """Construct a fresh scheduler instance for *name*."""
    if build is None:
        build = SchedulerBuild()
    return policy_info(name).factory(build)


def parse_scheduler_names(text: str) -> Tuple[str, ...]:
    """Parse a ``--schedulers`` value into canonical registry keys.

    Accepts a comma-separated list, validates every entry against the
    registry (unknown names raise the one-line
    :class:`~repro.common.errors.ConfigurationError` listing what is
    registered) and de-duplicates while preserving order.
    """
    names = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key = policy_info(part).name
        if key not in names:
            names.append(key)
    if not names:
        raise ConfigurationError(
            f"no schedulers selected from {text!r}; registered policies: "
            f"{', '.join(_REGISTRY)}")
    return tuple(names)


def scheduler_labels(names: Iterable[str]) -> Tuple[str, ...]:
    """Map registry keys / labels to canonical report labels."""
    return tuple(policy_info(name).label for name in names)


def _build_kraken(build: SchedulerBuild) -> Scheduler:
    if build.kraken_parameters is None:
        raise ConfigurationError(
            "Kraken needs parameters learned from a Vanilla profiling run "
            "(SchedulerBuild.kraken_parameters)")
    return KrakenScheduler(KrakenConfig(parameters=build.kraken_parameters,
                                        window_ms=build.window_ms))


def _build_faasbatch(build: SchedulerBuild) -> Scheduler:
    return FaaSBatchScheduler(FaaSBatchConfig(window_ms=build.window_ms))


register_policy(PolicyInfo(
    name="vanilla", label="Vanilla",
    cpu_discipline=VanillaScheduler.cpu_discipline,
    factory=lambda build: VanillaScheduler(),
    description="One isolated container per invocation (the default "
                "serverless model); push-dispatch, fair-share CPU."))

register_policy(PolicyInfo(
    name="sfs", label="SFS",
    cpu_discipline=SfsScheduler.cpu_discipline,
    factory=lambda build: SfsScheduler(),
    description="Vanilla's container model with the SFS user-space CPU "
                "scheduling discipline."))

register_policy(PolicyInfo(
    name="kraken", label="Kraken",
    cpu_discipline=KrakenScheduler.cpu_discipline,
    factory=_build_kraken,
    description="Windowed SLO-aware batching with serial in-container "
                "queues; sized from a Vanilla profiling run.",
    config_class=KrakenConfig,
    needs_vanilla_profile=True))

register_policy(PolicyInfo(
    name="faasbatch", label="FaaSBatch",
    cpu_discipline=CpuDiscipline.FAIR_SHARE,
    factory=_build_faasbatch,
    description="The paper's system: window batching, one container per "
                "function group, inline-parallel expansion, resource "
                "multiplexing.",
    config_class=FaaSBatchConfig))

register_policy(PolicyInfo(
    name="hiku", label="Hiku",
    cpu_discipline=HikuScheduler.cpu_discipline,
    factory=lambda build: HikuScheduler(),
    description="Pull-based dispatch: idle workers pull from a shared "
                "queue, bounding concurrency at the worker count."))

register_policy(PolicyInfo(
    name="datadriven", label="DataDriven",
    cpu_discipline=DataDrivenScheduler.cpu_discipline,
    factory=lambda build: DataDrivenScheduler(),
    description="Shortest-estimated-runtime-first dispatch from online "
                "per-function EWMA runtime estimates."))


#: The paper's §V comparison matrix — the default everywhere a selection
#: is not given, keeping historical CLI/report output stable.
DEFAULT_SCHEDULERS: Tuple[str, ...] = ("vanilla", "sfs", "kraken",
                                       "faasbatch")
