"""Graceful degradation: flip batching off when it stops winning.

FaaSBatch's dispatch window is a latency *bet*: hold requests for up to
``window_seconds`` so they share a container and its multiplexed clients.
The bet pays when traffic is dense (the window fills) and the handler
amortises shared state; it loses at sparse traffic, where every request
eats the full window as pure added latency.  The monitor settles the bet
empirically, on the serving path itself:

* every ``probe_every``-th request is dispatched in the *opposite* mode,
  so the loser keeps producing fresh evidence while benched;
* per-mode sliding windows of response latencies feed a p99 comparison;
* when the active mode's p99 exceeds the other side's by ``margin``,
  dispatch flips, both windows reset, and a ``cooldown`` of requests must
  pass before the next evaluation.

Flip decisions are a pure function of the observed latency sequence (no
clocks, no randomness), so tests can drive the monitor deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.stats import percentile

MODE_BATCH = "batch"
MODE_VANILLA = "vanilla"


@dataclass(frozen=True)
class DegradationConfig:
    """Sliding-window p99 comparison knobs."""

    enabled: bool = True
    #: Per-mode sliding window size (latency samples).
    window_size: int = 256
    #: Both modes need this many samples before a comparison counts.
    min_samples: int = 32
    #: Every Nth request probes the currently-benched mode.
    probe_every: int = 8
    #: The active mode must lose by this factor on p99 before a flip.
    margin: float = 1.25
    #: Requests to wait after a flip before evaluating again.
    cooldown: int = 128

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ConfigurationError(
                f"window_size must be >= 1, got {self.window_size}")
        if not 1 <= self.min_samples <= self.window_size:
            raise ConfigurationError(
                f"min_samples must be in [1, window_size], "
                f"got {self.min_samples}")
        if self.probe_every < 2:
            raise ConfigurationError(
                f"probe_every must be >= 2, got {self.probe_every}")
        if self.margin < 1.0:
            raise ConfigurationError(
                f"margin must be >= 1.0, got {self.margin}")
        if self.cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be >= 0, got {self.cooldown}")


class DegradationMonitor:
    """Chooses batch-vs-vanilla dispatch per request and tracks flips."""

    def __init__(self, config: Optional[DegradationConfig] = None) -> None:
        self.config = config if config is not None else DegradationConfig()
        self.mode = MODE_BATCH
        self.flips: List[dict] = []
        self._seq = 0
        self._recorded = 0
        self._cooldown_until = 0
        self._window: Dict[str, Deque[float]] = {
            MODE_BATCH: deque(maxlen=self.config.window_size),
            MODE_VANILLA: deque(maxlen=self.config.window_size),
        }

    def choose(self) -> str:
        """Dispatch mode for the next request (counter-driven probing)."""
        if not self.config.enabled:
            return self.mode
        self._seq += 1
        if self._seq % self.config.probe_every == 0:
            return self._other(self.mode)
        return self.mode

    def record(self, mode: str, latency_ms: float) -> None:
        """Feed one response latency; may flip :attr:`mode`."""
        if not self.config.enabled:
            return
        self._window[mode].append(latency_ms)
        self._recorded += 1
        self._evaluate()

    def p99(self, mode: str) -> Optional[float]:
        samples = self._window[mode]
        if len(samples) < self.config.min_samples:
            return None
        return percentile(samples, 99.0)

    def stats(self) -> dict:
        return {
            "enabled": self.config.enabled,
            "mode": self.mode,
            "flips": list(self.flips),
            "batch_p99_ms": self.p99(MODE_BATCH),
            "vanilla_p99_ms": self.p99(MODE_VANILLA),
            "samples": {m: len(w) for m, w in self._window.items()},
        }

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _other(mode: str) -> str:
        return MODE_VANILLA if mode == MODE_BATCH else MODE_BATCH

    def _evaluate(self) -> None:
        if self._recorded < self._cooldown_until:
            return
        active_p99 = self.p99(self.mode)
        other_p99 = self.p99(self._other(self.mode))
        if active_p99 is None or other_p99 is None:
            return
        if active_p99 > other_p99 * self.config.margin:
            self._flip(active_p99, other_p99)

    def _flip(self, active_p99: float, other_p99: float) -> None:
        new_mode = self._other(self.mode)
        self.flips.append({
            "seq": self._recorded,
            "from": self.mode,
            "to": new_mode,
            "loser_p99_ms": round(active_p99, 3),
            "winner_p99_ms": round(other_p99, 3),
        })
        self.mode = new_mode
        self._cooldown_until = self._recorded + self.config.cooldown
        # Stale evidence must not trigger an instant flip-back: both
        # windows restart and must refill past min_samples.
        for window in self._window.values():
            window.clear()
