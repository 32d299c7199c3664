"""Platform harness: gateway, platform, windows, experiment runner, results."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.platformsim.experiment": ("run_experiment",),
    "repro.platformsim.gateway": ("ReplayInjector",),
    "repro.platformsim.platform": ("ServerlessPlatform",),
    "repro.platformsim.results": ("ExperimentResult",),
    "repro.platformsim.windows": ("collect_window",),
})

__all__ = [
    "ExperimentResult",
    "ReplayInjector",
    "ServerlessPlatform",
    "collect_window",
    "run_experiment",
]
