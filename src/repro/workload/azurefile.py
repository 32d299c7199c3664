"""Reader for the real Azure Functions trace file format.

The paper's workloads are derived from the public Azure Functions trace
(Shahrad et al., ATC'20).  This repository ships a synthesiser for its
published marginals (:mod:`repro.workload.azure`), but users who have the
actual trace files can replay them directly through this module.  Two of
the release's CSV schemas are supported:

* ``invocations_per_function_md.anon.dXX.csv`` — per-function minute-level
  invocation counts: ``HashOwner, HashApp, HashFunction, Trigger,
  1, 2, ..., 1440``;
* ``function_durations_percentiles.anon.dXX.csv`` — per-function duration
  statistics: ``HashOwner, HashApp, HashFunction, Average, Count, Minimum,
  Maximum, percentile_Average_0, percentile_Average_1,
  percentile_Average_25, percentile_Average_50, percentile_Average_75,
  percentile_Average_99, percentile_Average_100``.

:class:`AzureTraceBuilder` joins the two, picks the hottest functions, and
emits a :class:`~repro.workload.trace.Trace` plus matching
:class:`~repro.model.function.FunctionSpec` objects whose durations are
drawn from each function's *piecewise-linear inverse CDF* fitted to the
published percentiles.

:func:`write_sample_files` writes small, well-formed sample files so the
format (and this module) is exercised end-to-end without the 100+ GB
download.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import WorkloadError
from repro.common.units import MINUTE
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import WorkProfile, cpu_profile
from repro.workload.trace import Trace, TraceRecord

MINUTES_PER_DAY = 1440

INVOCATION_HEADER_PREFIX = ["HashOwner", "HashApp", "HashFunction",
                            "Trigger"]
DURATION_HEADER = [
    "HashOwner", "HashApp", "HashFunction", "Average", "Count", "Minimum",
    "Maximum", "percentile_Average_0", "percentile_Average_1",
    "percentile_Average_25", "percentile_Average_50",
    "percentile_Average_75", "percentile_Average_99",
    "percentile_Average_100",
]
#: (cumulative probability, column) pairs of the duration percentiles.
PERCENTILE_POINTS: Tuple[Tuple[float, str], ...] = (
    (0.00, "percentile_Average_0"),
    (0.01, "percentile_Average_1"),
    (0.25, "percentile_Average_25"),
    (0.50, "percentile_Average_50"),
    (0.75, "percentile_Average_75"),
    (0.99, "percentile_Average_99"),
    (1.00, "percentile_Average_100"),
)


@dataclass(frozen=True)
class FunctionInvocations:
    """One row of the invocations-per-function file."""

    owner: str
    app: str
    function: str
    trigger: str
    minute_counts: Tuple[int, ...]

    @property
    def function_key(self) -> str:
        return f"{self.app}:{self.function}"

    @property
    def daily_total(self) -> int:
        return sum(self.minute_counts)


@dataclass(frozen=True)
class FunctionDurations:
    """One row of the duration-percentiles file (milliseconds)."""

    owner: str
    app: str
    function: str
    average_ms: float
    count: int
    percentiles: Tuple[Tuple[float, float], ...]  # (probability, ms)

    @property
    def function_key(self) -> str:
        return f"{self.app}:{self.function}"

    def sample_duration_ms(self, rng: random.Random) -> float:
        """Inverse-CDF sample from the piecewise-linear percentile fit."""
        roll = rng.random()
        points = self.percentiles
        for (p_low, v_low), (p_high, v_high) in zip(points, points[1:]):
            if roll <= p_high:
                if p_high == p_low:
                    return v_high
                frac = (roll - p_low) / (p_high - p_low)
                return v_low + frac * (v_high - v_low)
        return points[-1][1]


def read_invocations_csv(path: Path | str) -> List[FunctionInvocations]:
    """Parse an ``invocations_per_function_md`` file."""
    rows: List[FunctionInvocations] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or \
                header[:4] != INVOCATION_HEADER_PREFIX or \
                len(header) != 4 + MINUTES_PER_DAY:
            raise WorkloadError(
                f"{path}: not an invocations-per-function file "
                f"(header {header[:6] if header else None}...)")
        for line_number, row in enumerate(reader, start=2):
            if len(row) != 4 + MINUTES_PER_DAY:
                raise WorkloadError(
                    f"{path}:{line_number}: expected "
                    f"{4 + MINUTES_PER_DAY} columns, got {len(row)}")
            try:
                counts = tuple(int(cell) for cell in row[4:])
            except ValueError as exc:
                raise WorkloadError(
                    f"{path}:{line_number}: non-integer count") from exc
            rows.append(FunctionInvocations(
                owner=row[0], app=row[1], function=row[2], trigger=row[3],
                minute_counts=counts))
    return rows


def read_durations_csv(path: Path | str) -> List[FunctionDurations]:
    """Parse a ``function_durations_percentiles`` file."""
    rows: List[FunctionDurations] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != DURATION_HEADER:
            raise WorkloadError(
                f"{path}: not a duration-percentiles file "
                f"(header {reader.fieldnames})")
        for line_number, row in enumerate(reader, start=2):
            try:
                percentiles = tuple(
                    (probability, float(row[column]))
                    for probability, column in PERCENTILE_POINTS)
                record = FunctionDurations(
                    owner=row["HashOwner"], app=row["HashApp"],
                    function=row["HashFunction"],
                    average_ms=float(row["Average"]),
                    count=int(float(row["Count"])),
                    percentiles=percentiles)
            except (KeyError, ValueError) as exc:
                raise WorkloadError(
                    f"{path}:{line_number}: malformed row") from exc
            values = [v for _p, v in record.percentiles]
            if values != sorted(values):
                raise WorkloadError(
                    f"{path}:{line_number}: percentiles not monotone")
            rows.append(record)
    return rows


class AzureTraceBuilder:
    """Joins the two files and builds replayable traces."""

    def __init__(self,
                 invocations: Sequence[FunctionInvocations],
                 durations: Sequence[FunctionDurations],
                 seed: int = 0) -> None:
        if not invocations:
            raise WorkloadError("no invocation rows supplied")
        self._invocations = {row.function_key: row for row in invocations}
        self._durations = {row.function_key: row for row in durations}
        self._seed = seed

    @classmethod
    def from_files(cls, invocations_path: Path | str,
                   durations_path: Path | str,
                   seed: int = 0) -> "AzureTraceBuilder":
        return cls(read_invocations_csv(invocations_path),
                   read_durations_csv(durations_path), seed=seed)

    def hottest_functions(self, count: int) -> List[str]:
        """Function keys by descending daily invocation volume."""
        if count < 1:
            raise WorkloadError(f"count must be >= 1, got {count}")
        ordered = sorted(self._invocations.values(),
                         key=lambda row: (-row.daily_total,
                                          row.function_key))
        return [row.function_key for row in ordered[:count]]

    def build_trace(self,
                    function_keys: Optional[Sequence[str]] = None,
                    start_minute: int = 0,
                    end_minute: int = MINUTES_PER_DAY) -> Trace:
        """Expand minute counts into a timestamped trace.

        Invocations within a minute are spread uniformly (seeded), which is
        the finest granularity the released trace supports.
        """
        if not 0 <= start_minute < end_minute <= MINUTES_PER_DAY:
            raise WorkloadError(
                f"bad minute range [{start_minute}, {end_minute})")
        keys = (list(function_keys) if function_keys is not None
                else list(self._invocations))
        records: List[TraceRecord] = []
        for key in keys:
            row = self._invocations.get(key)
            if row is None:
                raise WorkloadError(f"unknown function {key!r}")
            rng = random.Random(f"{self._seed}:{key}")
            for minute in range(start_minute, end_minute):
                count = row.minute_counts[minute]
                base_ms = (minute - start_minute) * MINUTE
                for _ in range(count):
                    records.append(TraceRecord(
                        arrival_ms=base_ms + rng.random() * MINUTE,
                        function_id=key,
                        payload=None))
        if not records:
            raise WorkloadError("selected range contains no invocations")
        return Trace(records)

    def build_specs(self, function_keys: Sequence[str]) -> List[FunctionSpec]:
        """Function specs whose durations follow the percentile fits.

        Each spec samples a fresh duration per invocation from the
        function's inverse CDF (seeded independently per function, so runs
        stay deterministic).
        """
        specs: List[FunctionSpec] = []
        for key in function_keys:
            durations = self._durations.get(key)
            if durations is None:
                raise WorkloadError(f"no duration row for {key!r}")
            rng = random.Random(f"{self._seed}:durations:{key}")

            def profile(payload: object,
                        _durations: FunctionDurations = durations,
                        _rng: random.Random = rng) -> WorkProfile:
                return cpu_profile(max(_durations.sample_duration_ms(_rng),
                                       0.01))

            specs.append(FunctionSpec(function_id=key,
                                      kind=FunctionKind.CPU,
                                      profile_factory=profile))
        return specs


def write_sample_files(directory: Path | str,
                       functions: int = 5,
                       seed: int = 42) -> Tuple[Path, Path]:
    """Write small, schema-correct sample files; returns their paths.

    The sample mimics the real trace's character: a few hot, bursty
    functions and a long tail, durations skewed like Fig. 9.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    invocations_path = directory / "invocations_per_function_md.sample.csv"
    durations_path = directory / "function_durations_percentiles.sample.csv"

    names = [(f"owner{i % 2}", f"app{i}", f"fn{i}")
             for i in range(functions)]

    with open(invocations_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(INVOCATION_HEADER_PREFIX
                        + [str(m) for m in range(1, MINUTES_PER_DAY + 1)])
        for rank, (owner, app, fn) in enumerate(names):
            counts = [0] * MINUTES_PER_DAY
            episodes = rng.randint(2, 5)
            intensity = max(1.0, 20.0 / (rank + 1))
            for _ in range(episodes):
                start = rng.randrange(0, MINUTES_PER_DAY - 30)
                for minute in range(start, start + rng.randint(5, 30)):
                    counts[minute] += int(rng.expovariate(1.0 / intensity))
            writer.writerow([owner, app, fn, "http"] + counts)

    with open(durations_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DURATION_HEADER)
        for owner, app, fn in names:
            median = rng.choice([15.0, 40.0, 120.0, 300.0, 900.0])
            spread = rng.uniform(1.5, 4.0)
            percentiles = [median / spread ** 2, median / spread,
                           median / 1.3, median, median * 1.4,
                           median * spread, median * spread ** 2]
            count = rng.randint(500, 5_000)
            writer.writerow([owner, app, fn,
                             round(median * 1.1, 2), count,
                             round(percentiles[0], 2),
                             round(percentiles[-1], 2)]
                            + [round(p, 2) for p in percentiles])
    return invocations_path, durations_path
