"""Declarative SLOs and the ``repro slo`` burn-rate gate.

An :class:`SloSpec` states what a run must deliver — a goodput floor, a
p99 latency ceiling, a simulator-throughput floor, an error-budget burn
ceiling — and this module evaluates a list of specs against the three
places results live:

* committed bench artifacts (``BENCH_*.json``), as the report dict the
  strict :func:`repro.bench.load_report` returns — a file that fails
  validation never reaches the gate;
* gateway harness record streams (the ``--records`` JSONL written by
  ``repro loadgen``), whose per-bucket ``gateway-series`` points enable
  *sliding-window* burn rates rather than whole-run averages;
* in-memory cell rows, for tests and for ``repro slo --annotate``
  (which attaches the evaluation as a per-cell ``slo`` block).

Burn rate follows the SRE convention: with error budget *b* (the allowed
failure fraction), a window whose observed error fraction is *e* burns at
``e / b`` — 1.0 consumes the budget exactly at the sustainable pace, and
a ceiling of, say, 14 is a fast-burn page.  Whole-artifact evaluation
treats the run as one window; record streams slide a ``window_s`` window
across the goodput series and take the worst window.

``repro slo --check`` exits nonzero on any violated spec, which is what
the CI ``slo-gate`` job runs against the committed artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Sections of a bench artifact a spec can target.
SLO_SECTIONS = ("gateway_cells", "cluster_cells", "window_cells", "runs")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over one artifact section.

    Thresholds are all optional; only the ones set produce checks.
    ``match`` is an equality filter on cell fields (e.g.
    ``{"policy": "faasbatch"}``) so a spec can target the paper system's
    serving arm while leaving the deliberately-overloaded vanilla
    control cell ungated.
    """

    name: str
    applies_to: str = "gateway_cells"
    match: Dict[str, object] = field(default_factory=dict)
    #: Minimum acceptable goodput fraction in [0, 1].
    goodput_floor: Optional[float] = None
    #: Maximum acceptable p99 end-to-end latency (milliseconds).
    p99_ceiling_ms: Optional[float] = None
    #: Minimum simulator throughput (``runs`` rows only).
    events_per_sec_floor: Optional[float] = None
    #: Allowed failure fraction (1 - availability target); enables burn
    #: checks when set together with ``burn_rate_ceiling``.
    error_budget: Optional[float] = None
    #: Maximum burn rate (error fraction / budget) in any window.
    burn_rate_ceiling: Optional[float] = None
    #: Sliding-window width in seconds for record-stream burn checks;
    #: whole-artifact evaluation always uses the full run as one window.
    window_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.applies_to not in SLO_SECTIONS:
            raise ConfigurationError(
                f"applies_to must be one of {SLO_SECTIONS}, "
                f"got {self.applies_to!r}")
        if self.goodput_floor is not None \
                and not 0.0 <= self.goodput_floor <= 1.0:
            raise ConfigurationError(
                f"goodput_floor must be in [0, 1], got {self.goodput_floor}")
        if self.error_budget is not None \
                and not 0.0 < self.error_budget <= 1.0:
            raise ConfigurationError(
                f"error_budget must be in (0, 1], got {self.error_budget}")
        if self.burn_rate_ceiling is not None and self.error_budget is None:
            raise ConfigurationError(
                f"slo {self.name!r}: burn_rate_ceiling needs error_budget")

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"name": self.name,
                                  "applies_to": self.applies_to}
        if self.match:
            out["match"] = dict(self.match)
        for key in ("goodput_floor", "p99_ceiling_ms",
                    "events_per_sec_floor", "error_budget",
                    "burn_rate_ceiling", "window_s"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SloSpec":
        known = {"name", "applies_to", "match", "goodput_floor",
                 "p99_ceiling_ms", "events_per_sec_floor", "error_budget",
                 "burn_rate_ceiling", "window_s"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown slo spec keys: {sorted(unknown)}")
        if "name" not in payload:
            raise ConfigurationError("slo spec needs a name")
        return cls(**payload)


@dataclass(frozen=True)
class SloCheck:
    """One threshold comparison inside an evaluation."""

    check: str
    ok: bool
    observed: Optional[float]
    threshold: float

    def to_dict(self) -> dict:
        return {"check": self.check, "ok": self.ok,
                "observed": self.observed, "threshold": self.threshold}


@dataclass(frozen=True)
class SloResult:
    """One spec evaluated against one cell (or record stream)."""

    spec: str
    target: str
    checks: Tuple[SloCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> dict:
        return {"spec": self.spec, "target": self.target, "ok": self.ok,
                "checks": [check.to_dict() for check in self.checks]}


def default_specs() -> List[SloSpec]:
    """The built-in gate the CI ``slo-gate`` job enforces.

    Floors and ceilings are set with comfortable headroom over the
    committed artifacts (gateway faasbatch: goodput 1.0 / p99 ~237 ms;
    sim cells: ≥ 52k events/s) so the gate trips on real
    regressions, not measurement noise.  The vanilla gateway cell is the
    paper's deliberately-overloaded control arm — no spec matches it.
    """
    return [
        SloSpec(name="gateway-goodput", applies_to="gateway_cells",
                match={"policy": "faasbatch"},
                goodput_floor=0.99, p99_ceiling_ms=1_000.0,
                error_budget=0.01, burn_rate_ceiling=1.0, window_s=10.0),
        SloSpec(name="sim-throughput", applies_to="runs",
                events_per_sec_floor=2_000.0),
        SloSpec(name="cluster-goodput", applies_to="cluster_cells",
                goodput_floor=0.999),
        SloSpec(name="window-goodput", applies_to="window_cells",
                goodput_floor=0.999),
    ]


def load_specs(path: str) -> List[SloSpec]:
    """Read an ``{"slos": [...]}`` spec file."""
    with open(path) as handle:
        payload = json.load(handle)
    slos = payload.get("slos") if isinstance(payload, dict) else None
    if not isinstance(slos, list) or not slos:
        raise ConfigurationError(
            f"{path}: spec file needs a non-empty 'slos' list")
    return [SloSpec.from_dict(entry) for entry in slos]


# -- evaluation -------------------------------------------------------------------


def _matches(spec: SloSpec, row: dict) -> bool:
    return all(row.get(key) == value for key, value in spec.match.items())


def _cell_goodput(section: str, row: dict) -> Optional[float]:
    if section == "gateway_cells":
        value = row.get("goodput_ratio")
    elif section == "window_cells":
        value = row.get("goodput")
    elif section == "cluster_cells":
        completed = row.get("completed")
        failed = row.get("failed")
        if not isinstance(completed, (int, float)) \
                or not isinstance(failed, (int, float)) \
                or completed + failed <= 0:
            return None
        return completed / (completed + failed)
    else:
        return None
    return float(value) if isinstance(value, (int, float)) else None


def _cell_p99(row: dict) -> Optional[float]:
    latency = row.get("latency_ms")
    if isinstance(latency, dict) \
            and isinstance(latency.get("p99"), (int, float)):
        return float(latency["p99"])
    return None


def _cell_label(section: str, row: dict) -> str:
    if section == "runs":
        return f"runs[{row.get('scheduler')}]"
    return f"{section}[{row.get('cell')}]"


def evaluate_cell(spec: SloSpec, section: str, row: dict,
                  target_prefix: str = "") -> Optional[SloResult]:
    """Evaluate one spec against one cell row; None when out of scope."""
    if spec.applies_to != section or not _matches(spec, row):
        return None
    checks: List[SloCheck] = []
    goodput = _cell_goodput(section, row)
    if spec.goodput_floor is not None:
        checks.append(SloCheck(
            check="goodput_floor",
            ok=goodput is not None and goodput >= spec.goodput_floor,
            observed=goodput, threshold=spec.goodput_floor))
    if spec.p99_ceiling_ms is not None:
        p99 = _cell_p99(row)
        checks.append(SloCheck(
            check="p99_ceiling_ms",
            ok=p99 is not None and p99 <= spec.p99_ceiling_ms,
            observed=p99, threshold=spec.p99_ceiling_ms))
    if spec.events_per_sec_floor is not None:
        events = row.get("events_per_sec")
        observed = (float(events)
                    if isinstance(events, (int, float)) else None)
        checks.append(SloCheck(
            check="events_per_sec_floor",
            ok=observed is not None
            and observed >= spec.events_per_sec_floor,
            observed=observed, threshold=spec.events_per_sec_floor))
    if spec.error_budget is not None \
            and spec.burn_rate_ceiling is not None:
        # Whole-run burn: the artifact has no time axis, so the run is
        # one window.  Record streams refine this to sliding windows.
        burn = (None if goodput is None
                else (1.0 - goodput) / spec.error_budget)
        checks.append(SloCheck(
            check="burn_rate_ceiling",
            ok=burn is not None and burn <= spec.burn_rate_ceiling,
            observed=(round(burn, 6) if burn is not None else None),
            threshold=spec.burn_rate_ceiling))
    if not checks:
        return None
    return SloResult(spec=spec.name,
                     target=target_prefix + _cell_label(section, row),
                     checks=tuple(checks))


def evaluate_artifact(report: dict, specs: Sequence[SloSpec],
                      target_prefix: str = "") -> List[SloResult]:
    """Every applicable (spec, cell) evaluation over one bench artifact.

    ``report`` is a validated report (:func:`repro.bench.load_report`);
    sections the artifact lacks are skipped, so a sim-only report and a
    gateway-only report both evaluate cleanly.
    """
    results: List[SloResult] = []
    for section in SLO_SECTIONS:
        for row in report.get(section) or ():
            for spec in specs:
                result = evaluate_cell(spec, section, row,
                                       target_prefix=target_prefix)
                if result is not None:
                    results.append(result)
    return results


def max_burn_rate(offered: Sequence[Sequence[float]],
                  goodput: Sequence[Sequence[float]],
                  error_budget: float,
                  window_s: float) -> Optional[float]:
    """Worst sliding-window burn rate over a bucketed goodput series.

    ``offered`` and ``goodput`` are ``[t, rate]`` point lists sharing
    bucket timestamps (the ``gateway-series`` record format).  Windows
    slide one bucket at a time; buckets with zero offered load contribute
    nothing.  Returns None when the series is empty.
    """
    good_by_t = {point[0]: point[1] for point in goodput}
    buckets = [(t, rate, good_by_t.get(t, 0.0)) for t, rate in offered]
    if not buckets:
        return None
    if len(buckets) > 1:
        bucket_s = buckets[1][0] - buckets[0][0]
    else:
        bucket_s = window_s
    width = max(1, round(window_s / max(bucket_s, 1e-9)))
    worst: Optional[float] = None
    for start in range(max(1, len(buckets) - width + 1)):
        window = buckets[start:start + width]
        offered_total = sum(rate for _t, rate, _g in window)
        if offered_total <= 0:
            continue
        errors = sum(max(rate - good, 0.0) for _t, rate, good in window)
        burn = (errors / offered_total) / error_budget
        worst = burn if worst is None else max(worst, burn)
    return worst


def evaluate_records(records: Iterable[dict],
                     specs: Sequence[SloSpec],
                     target_prefix: str = "") -> List[SloResult]:
    """Sliding-window burn checks over a loadgen record stream.

    Consumes the ``gateway-series`` records ``repro loadgen --records``
    writes (per-policy ``offered_rps`` / ``goodput_rps`` buckets) and
    evaluates every gateway spec carrying a burn ceiling.  The stream's
    ``policy`` field holds the cell label, which the stock cells name
    after their policy — ``match`` filters apply to it directly.
    """
    series: Dict[Tuple[str, str], List[List[float]]] = {}
    for record in records:
        if record.get("type") == "gateway-series":
            series[(str(record.get("policy")),
                    str(record.get("name")))] = list(record.get("points", []))
    policies = sorted({policy for policy, _name in series})
    results: List[SloResult] = []
    for policy in policies:
        row = {"policy": policy}
        for spec in specs:
            if spec.applies_to != "gateway_cells" \
                    or not _matches(spec, row):
                continue
            if spec.error_budget is None or spec.burn_rate_ceiling is None:
                continue
            burn = max_burn_rate(
                series.get((policy, "offered_rps"), []),
                series.get((policy, "goodput_rps"), []),
                spec.error_budget,
                spec.window_s if spec.window_s is not None else 10.0)
            results.append(SloResult(
                spec=spec.name,
                target=f"{target_prefix}records[{policy}]",
                checks=(SloCheck(
                    check="burn_rate_ceiling",
                    ok=burn is not None
                    and burn <= spec.burn_rate_ceiling,
                    observed=(round(burn, 6) if burn is not None else None),
                    threshold=spec.burn_rate_ceiling),)))
    return results


def annotate_report(report: dict, specs: Sequence[SloSpec]) -> dict:
    """Attach per-cell ``slo`` blocks in place; returns the report.

    Each evaluated cell gains ``{"ok": bool, "checks": [...]}`` merging
    every spec that matched it; untouched cells carry no block.
    """
    for section in SLO_SECTIONS:
        for row in report.get(section) or ():
            checks: List[dict] = []
            for spec in specs:
                result = evaluate_cell(spec, section, row)
                if result is not None:
                    for check in result.checks:
                        entry = check.to_dict()
                        entry["spec"] = spec.name
                        checks.append(entry)
            if checks:
                row["slo"] = {"ok": all(c["ok"] for c in checks),
                              "checks": checks}
    return report


def slo_table(results: Sequence[SloResult]):
    """``(headers, rows)`` for the CLI's evaluation table."""
    headers = ["spec", "target", "check", "observed", "threshold", "ok"]
    rows: List[List[object]] = []
    for result in results:
        for check in result.checks:
            rows.append([result.spec, result.target, check.check,
                         check.observed, check.threshold,
                         "pass" if check.ok else "FAIL"])
    return headers, rows


__all__ = [
    "SLO_SECTIONS",
    "SloCheck",
    "SloResult",
    "SloSpec",
    "annotate_report",
    "default_specs",
    "evaluate_artifact",
    "evaluate_cell",
    "evaluate_records",
    "load_specs",
    "max_burn_rate",
    "slo_table",
]
