"""Baseline schedulers (§IV) and the scheduling-policy registry."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.baselines.base": ("CpuDiscipline", "Scheduler"),
    "repro.baselines.datadriven": ("DataDrivenScheduler",),
    "repro.baselines.hiku": ("HikuScheduler",),
    "repro.baselines.kraken": (
        "KrakenConfig", "KrakenMode", "KrakenParameters", "KrakenScheduler"),
    "repro.baselines.registry": (
        "DEFAULT_SCHEDULERS", "PolicyInfo", "SchedulerBuild",
        "build_scheduler", "parse_scheduler_names", "policy_info",
        "register_policy", "registered_policies", "scheduler_labels"),
    "repro.baselines.sfs": ("SfsScheduler",),
    "repro.baselines.vanilla": ("VanillaScheduler",),
})

__all__ = [
    "CpuDiscipline",
    "DEFAULT_SCHEDULERS",
    "DataDrivenScheduler",
    "HikuScheduler",
    "KrakenConfig",
    "KrakenMode",
    "KrakenParameters",
    "KrakenScheduler",
    "PolicyInfo",
    "Scheduler",
    "SchedulerBuild",
    "SfsScheduler",
    "VanillaScheduler",
    "build_scheduler",
    "parse_scheduler_names",
    "policy_info",
    "register_policy",
    "registered_policies",
    "scheduler_labels",
]
