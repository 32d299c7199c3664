"""FaaSBatch configuration.

The knobs mirror §III/§IV: the dispatch-window interval (default 0.2 s,
swept from 0.01 s to 0.5 s in Figs. 13/14) and switches for the ablation
study (inline parallelism on/off, resource multiplexing on/off).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError

#: The paper's default dispatch interval: "we set a fixed time interval
#: (default in 0.2 second)" (§III-B).
DEFAULT_WINDOW_MS = 200.0

#: The interval sweep of the evaluation: "varying the window sizes from
#: 0.01 s to 0.5 s" (§IV).
SWEEP_WINDOWS_MS = (10.0, 100.0, 200.0, 500.0)


@dataclass(frozen=True)
class FaaSBatchConfig:
    """Configuration of the FaaSBatch scheduler."""

    #: Dispatch window: requests arriving within it are treated as
    #: concurrent and batched into one group per function.
    window_ms: float = DEFAULT_WINDOW_MS
    #: Expand batched invocations in parallel inside the container
    #: (§III-C).  Disabling this degrades a group to a serial queue —
    #: the Kraken-style execution used for the ablation benchmark.
    inline_parallel: bool = True
    #: Reuse redundant resources inside containers (§III-D).  Disabling
    #: makes every invocation build its own storage client — the other
    #: ablation axis.
    multiplex_resources: bool = True
    #: The paper's future-work extension (§III-C): return each completed
    #: invocation to its caller immediately instead of holding the group's
    #: HTTP response until every member has finished.  Off by default to
    #: match the published system.
    early_return: bool = False

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise ConfigurationError(
                f"window_ms must be >= 0, got {self.window_ms}")
