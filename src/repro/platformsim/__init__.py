"""Platform harness: gateway, platform, windows, experiment runner, results."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.common.eventlog": ("EventKind", "EventLog", "LogRecord"),
    "repro.platformsim.experiment": ("run_experiment",),
    "repro.platformsim.gateway": ("ReplayInjector", "start_replay"),
    "repro.platformsim.platform": ("ServerlessPlatform",),
    "repro.platformsim.results": ("ExperimentResult",),
    "repro.platformsim.windows": ("collect_window",),
})

__all__ = [
    "EventKind",
    "EventLog",
    "ExperimentResult",
    "LogRecord",
    "ReplayInjector",
    "ServerlessPlatform",
    "collect_window",
    "run_experiment",
    "start_replay",
]
