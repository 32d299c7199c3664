"""Platform harness: gateway, platform, windows, experiment runner, results."""

from repro.common.eventlog import EventKind, EventLog, LogRecord
from repro.platformsim.experiment import run_experiment
from repro.platformsim.gateway import ReplayInjector, start_replay
from repro.platformsim.platform import ServerlessPlatform
from repro.platformsim.results import ExperimentResult
from repro.platformsim.windows import collect_window

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
