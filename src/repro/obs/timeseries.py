"""Telemetry time-series: a deterministic, kernel-driven periodic sampler.

The paper samples host resources "at a frequency of once per second"
(§V-B); this module generalises that to *every* instrument the platform
publishes — warm/busy container counts, pending-queue depth, open dispatch
windows, CPU utilization, runnable cgroups, memory in use — so a run can be
rendered as utilization-over-time curves (Figs. 13/14) instead of a single
end-of-run scalar.

Purity
------
The sampler is driven by :meth:`~repro.sim.kernel.Environment.add_time_hook`
— it never schedules a timeout or creates an event, so enabling it cannot
perturb the event stream, the ``events_processed`` counter, or any simulated
result.  Time hooks run after the clock advances and before the events at
the new time are processed, so a boundary crossed in ``(old, new]`` records
the state that *held* through that interval (step-function semantics).

Bounding
--------
Each :class:`Series` holds at most ``max_points`` committed points.  On
overflow, adjacent point pairs are coalesced (first timestamp kept, values
averaged) and the effective interval doubles; later raw samples are averaged
in matching strides.  The procedure is deterministic, so two identical runs
produce byte-identical series snapshots at any length.
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple,
)

if TYPE_CHECKING:
    from repro.sim.kernel import Environment

#: Default sampling cadence: 1 s of simulated time, matching the paper's
#: (and ``sim/machine.py``'s) once-per-second host sampling.
DEFAULT_INTERVAL_MS = 1000.0

#: Default committed-point bound per series (coalescing starts beyond it).
DEFAULT_MAX_POINTS = 512

#: A probe returns one instrument reading; called only at sample instants.
Probe = Callable[[], float]


class Series:
    """One fixed-interval, bounded time series of instrument readings."""

    def __init__(self, name: str,
                 interval_ms: float = DEFAULT_INTERVAL_MS,
                 max_points: int = DEFAULT_MAX_POINTS) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be > 0, got {interval_ms}")
        if max_points < 2 or max_points % 2:
            raise ValueError(
                f"max_points must be an even number >= 2, got {max_points}")
        self.name = name
        #: The sampler's raw cadence (never changes).
        self.base_interval_ms = float(interval_ms)
        #: The effective spacing of committed points (doubles on coalesce).
        self.interval_ms = float(interval_ms)
        self.max_points = max_points
        self._times: List[float] = []
        self._values: List[float] = []
        # Raw samples per committed point; doubles with every coalesce.
        self._stride = 1
        self._pending_time: Optional[float] = None
        self._pending_sum = 0.0
        self._pending_count = 0

    def __len__(self) -> int:
        return len(self._times) + (1 if self._pending_count else 0)

    def append(self, time_ms: float, value: float) -> None:
        """Record one raw sample (called once per sampler boundary)."""
        if self._pending_count == 0:
            self._pending_time = time_ms
        self._pending_sum += float(value)
        self._pending_count += 1
        if self._pending_count >= self._stride:
            self._commit()

    def _commit(self) -> None:
        assert self._pending_time is not None
        self._times.append(self._pending_time)
        self._values.append(self._pending_sum / self._pending_count)
        self._pending_time = None
        self._pending_sum = 0.0
        self._pending_count = 0
        if len(self._times) > self.max_points:
            self._coalesce()

    def _coalesce(self) -> None:
        """Halve resolution: average adjacent pairs, double the interval."""
        times: List[float] = []
        values: List[float] = []
        count = len(self._times)
        index = 0
        while index + 1 < count:
            times.append(self._times[index])
            values.append((self._values[index]
                           + self._values[index + 1]) / 2.0)
            index += 2
        if index < count:
            # Odd leftover point: re-open it as the pending accumulator so
            # the next raw sample pairs with it at the new stride.  It
            # stands for ``_stride`` raw samples, so its sum is its mean
            # times that many.
            self._pending_time = self._times[index]
            self._pending_sum = self._values[index] * self._stride
            self._pending_count = self._stride
        self._times = times
        self._values = values
        self._stride *= 2
        self.interval_ms *= 2.0

    def points(self) -> List[Tuple[float, float]]:
        """Committed ``(time_ms, value)`` points plus any partial tail."""
        out = list(zip(self._times, self._values))
        if self._pending_count:
            out.append((self._pending_time,
                        self._pending_sum / self._pending_count))
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-shaped record (the ``type: series`` JSONL record body)."""
        return {
            "type": "series",
            "name": self.name,
            "interval_ms": self.interval_ms,
            "base_interval_ms": self.base_interval_ms,
            "points": [[t, v] for t, v in self.points()],
        }


class TimeSeriesSampler:
    """Snapshots every registered probe at fixed simulated-time boundaries.

    Disabled by default (probes register cheaply either way); when enabled
    and installed on an environment, one sample per probe is taken at
    install time and then at every ``interval_ms`` boundary the clock
    crosses.  Installation uses a kernel *time hook*, never an event, so
    the sampler is a pure observer by construction.
    """

    def __init__(self, interval_ms: float = DEFAULT_INTERVAL_MS,
                 max_points: int = DEFAULT_MAX_POINTS,
                 enabled: bool = False) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be > 0, got {interval_ms}")
        self.interval_ms = float(interval_ms)
        self.max_points = max_points
        self.enabled = enabled
        self._probes: Dict[str, Probe] = {}
        self._series: Dict[str, Series] = {}
        self._env: Optional[Environment] = None
        self._origin_ms = 0.0
        self._next_tick = 1  # boundary index: origin + tick * interval
        self._boundary_ms = self.interval_ms  # origin + next_tick * interval

    def enable(self) -> "TimeSeriesSampler":
        self.enabled = True
        return self

    # -- registration ------------------------------------------------------------

    def register_probe(self, name: str, probe: Probe) -> None:
        """Register (or replace) the instrument read at every boundary.

        Re-registering a name replaces its probe but keeps the recorded
        series: a fresh platform bound to a reused bundle re-points the
        probes at its own live objects.
        """
        self._probes[name] = probe
        if name not in self._series:
            self._series[name] = Series(name, self.interval_ms,
                                        self.max_points)

    def register_gauge(self, name: str, gauge) -> None:
        """Convenience: sample a :class:`~repro.obs.metrics.Gauge`."""
        self.register_probe(name, lambda: float(gauge.value))

    # -- installation ------------------------------------------------------------

    def install(self, env: Environment) -> None:
        """Install the sampling time hook on *env* (idempotent per env).

        Installing on a *new* environment (a bundle reused across runs)
        re-anchors the boundary grid at that environment's current time and
        keeps appending to the same series — mirroring how a shared
        :class:`~repro.obs.metrics.MetricsRegistry` accumulates across runs.
        """
        if not self.enabled or self._env is env:
            return
        self._env = env
        self._origin_ms = env.now
        self._next_tick = 1
        self._boundary_ms = self._origin_ms + self.interval_ms
        self._sample(env.now)
        env.add_time_hook(self._on_advance)

    def uninstall(self) -> None:
        """Stop sampling and drop every probe; the recorded series stay."""
        if self._env is not None:
            self._env.remove_time_hook(self._on_advance)
            self._env = None
        self._probes.clear()

    def _on_advance(self, _old_ms: float, new_ms: float) -> None:
        boundary = self._boundary_ms
        if boundary > new_ms:  # most advances cross no boundary
            return
        while boundary <= new_ms:
            self._sample(boundary)
            self._next_tick += 1
            boundary = self._origin_ms + self._next_tick * self.interval_ms
        self._boundary_ms = boundary

    def _sample(self, time_ms: float) -> None:
        for name, probe in self._probes.items():
            self._series[name].append(time_ms, float(probe()))

    # -- access ------------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._series)

    def series(self, name: str) -> Series:
        try:
            return self._series[name]
        except KeyError:
            raise KeyError(f"no series named {name!r}") from None

    def snapshot(self) -> Dict[str, object]:
        """Deterministic dump of every series, ordered by name."""
        return {name: self._series[name].to_dict()
                for name in self.names()}


def series_records(sampler: Optional[TimeSeriesSampler],
                   extra: Optional[Mapping[str, object]] = None
                   ) -> List[Dict[str, object]]:
    """``type: series`` JSONL records for every non-empty sampled series."""
    if sampler is None:
        return []
    decoration = dict(extra) if extra else {}
    out: List[Dict[str, object]] = []
    for name in sampler.names():
        series = sampler.series(name)
        if not len(series):
            continue
        record = series.to_dict()
        record.update(decoration)
        out.append(record)
    return out


def write_series_jsonl(handle, sampler: Optional[TimeSeriesSampler],
                       extra: Optional[Mapping[str, object]] = None) -> int:
    """Append one line per sampled series to an open JSONL handle."""
    written = 0
    for record in series_records(sampler, extra=extra):
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        written += 1
    return written




__all__ = [
    "DEFAULT_INTERVAL_MS",
    "DEFAULT_MAX_POINTS",
    "Series",
    "TimeSeriesSampler",
    "series_records",
    "write_series_jsonl",
]
