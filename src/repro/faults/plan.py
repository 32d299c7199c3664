"""Declarative fault plans: what breaks, when, deterministically.

A :class:`FaultPlan` is pure data — it names faults by *ordinal* (the Nth
container started, the Nth cold start, the Nth dispatch), optionally scoped
to one function, so the same plan is meaningful under every scheduler even
though each provisions a different number of containers.  Plans round-trip
through JSON (``FaultPlan.load`` / ``dump``) for the ``repro chaos`` CLI.

Triggers are relative (``after_start_ms`` delays from the target
container's start) rather than absolute simulation times: an absolute time
might land after a scheduler already retired the container, whereas a
start-relative delay follows the target wherever the policy put it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class ContainerCrashFault:
    """Crash the *ordinal*-th started container ``after_start_ms`` later.

    In-flight invocations are aborted with
    :class:`~repro.common.errors.ContainerCrashed`; the container's memory
    and CPU group are reclaimed.  ``function_id`` restricts the ordinal
    count to containers of that function.
    """

    ordinal: int
    after_start_ms: float
    function_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.ordinal >= 1, f"ordinal must be >= 1, got {self.ordinal}")
        _require(self.after_start_ms >= 0,
                 f"after_start_ms must be >= 0, got {self.after_start_ms}")


@dataclass(frozen=True)
class ColdStartFailureFault:
    """Fail the *ordinal*-th cold start (after its latency was paid).

    The container dies before serving anything; the scheduler sees
    :class:`~repro.common.errors.ColdStartFailed` and the circuit breaker
    records a failure for the function's image.
    """

    ordinal: int
    function_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.ordinal >= 1, f"ordinal must be >= 1, got {self.ordinal}")


@dataclass(frozen=True)
class StragglerFault:
    """Scale the *ordinal*-th container's CPU cap for a window.

    ``cpu_scale`` multiplies the container's cap (an uncapped container is
    treated as owning all worker cores) between ``after_start_ms`` and
    ``after_start_ms + duration_ms`` after it starts, then the original cap
    is restored — the classic slow-node straggler.
    """

    ordinal: int
    after_start_ms: float
    duration_ms: float
    cpu_scale: float = 0.25
    function_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.ordinal >= 1, f"ordinal must be >= 1, got {self.ordinal}")
        _require(self.after_start_ms >= 0,
                 f"after_start_ms must be >= 0, got {self.after_start_ms}")
        _require(self.duration_ms > 0,
                 f"duration_ms must be > 0, got {self.duration_ms}")
        _require(0 < self.cpu_scale < 1,
                 f"cpu_scale must be in (0, 1), got {self.cpu_scale}")


@dataclass(frozen=True)
class DispatchErrorFault:
    """Fail the *ordinal*-th invocation dispatch with a transient error.

    The invocation never reaches its container (models a dropped RPC to the
    worker agent); it fails with
    :class:`~repro.common.errors.TransientDispatchError` and is eligible
    for retry.
    """

    ordinal: int
    function_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.ordinal >= 1, f"ordinal must be >= 1, got {self.ordinal}")


@dataclass(frozen=True)
class OomKillFault:
    """Kill the fattest container whenever memory crosses ``threshold_mb``.

    At most ``max_kills`` kills; the watcher re-arms only after usage drops
    back below the threshold (hysteresis), so one sustained crossing causes
    one kill, not one per allocation.
    """

    threshold_mb: float
    max_kills: int = 1

    def __post_init__(self) -> None:
        _require(self.threshold_mb > 0,
                 f"threshold_mb must be > 0, got {self.threshold_mb}")
        _require(self.max_kills >= 1,
                 f"max_kills must be >= 1, got {self.max_kills}")


#: JSON section name → fault dataclass, in canonical serialisation order.
_SECTIONS = (
    ("crashes", ContainerCrashFault),
    ("cold_start_failures", ColdStartFailureFault),
    ("stragglers", StragglerFault),
    ("dispatch_errors", DispatchErrorFault),
    ("oom_kills", OomKillFault),
)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative set of faults to inject into one run."""

    seed: int = 0
    crashes: Tuple[ContainerCrashFault, ...] = ()
    cold_start_failures: Tuple[ColdStartFailureFault, ...] = ()
    stragglers: Tuple[StragglerFault, ...] = ()
    dispatch_errors: Tuple[DispatchErrorFault, ...] = ()
    oom_kills: Tuple[OomKillFault, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists in the constructor but store tuples (hashable plan).
        for name, _cls in _SECTIONS:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    def fault_count(self) -> int:
        return sum(len(getattr(self, name)) for name, _cls in _SECTIONS)

    # -- JSON round-trip ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"seed": self.seed}
        for name, _cls in _SECTIONS:
            faults = getattr(self, name)
            if faults:
                out[name] = [
                    {k: v for k, v in asdict(fault).items() if v is not None}
                    for fault in faults
                ]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        known = {"seed"} | {name for name, _cls in _SECTIONS}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan sections: {sorted(unknown)}")
        kwargs: Dict[str, object] = {"seed": int(data.get("seed", 0))}
        for name, fault_cls in _SECTIONS:
            entries = data.get(name, [])
            if not isinstance(entries, list):
                raise ValueError(f"{name!r} must be a list")
            kwargs[name] = tuple(fault_cls(**entry) for entry in entries)
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


def reference_plan(seed: int = 7) -> FaultPlan:
    """The chaos benchmark's reference plan (``repro chaos`` default).

    Chosen so that *every* scheduler gets hurt regardless of how many
    containers it provisions: the first cold start always exists, dispatch
    ordinals are bounded by the invocation count, and the crash/straggler
    target the first containers each policy starts.
    """
    return FaultPlan(
        seed=seed,
        crashes=(
            ContainerCrashFault(ordinal=1, after_start_ms=300.0),
            ContainerCrashFault(ordinal=3, after_start_ms=150.0),
        ),
        cold_start_failures=(
            ColdStartFailureFault(ordinal=1),
            ColdStartFailureFault(ordinal=4),
        ),
        stragglers=(
            StragglerFault(ordinal=2, after_start_ms=100.0,
                           duration_ms=600.0, cpu_scale=0.25),
        ),
        dispatch_errors=(
            DispatchErrorFault(ordinal=3),
            DispatchErrorFault(ordinal=11),
        ),
    )

