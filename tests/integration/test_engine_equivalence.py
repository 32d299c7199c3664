"""Golden digests: the simulator's byte-observable output, pinned.

``tests/data/engine_goldens.json`` holds sha256 digests of the span trace
and metrics snapshot (plus completion time and invocation count)
of six seeded scenarios — four schedulers, two of them again under a fault
plan with the resilience layer on.  Same seed ⇒ byte-identical artifacts:
the fair-share engine, the SFS discipline and the dispatch pipeline may be
restructured freely as long as these digests do not move.

A digest that moves is a bug to find, not a file to re-record.  The only
acceptable re-record is one scenario at a time, with identical completion
order and its maximum relative drift (≤ 1e-9) written into this docstring;
``PYTHONPATH=src python tests/integration/test_engine_equivalence.py``
rewrites the file.  What the engine computes *between* the digests'
scenarios is covered by ``tests/sim/test_fair_share_differential.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.baselines.kraken import (
    KrakenConfig,
    KrakenParameters,
    KrakenScheduler,
)
from repro.baselines.sfs import SfsScheduler
from repro.baselines.vanilla import VanillaScheduler
from repro.core.config import FaaSBatchConfig
from repro.core.scheduler import FaaSBatchScheduler
from repro.faults import ResiliencePolicy, reference_plan
from repro.obs import Observability
from repro.obs.trace import write_jsonl
from repro.platformsim import experiment
from repro.platformsim.experiment import run_experiment
from repro.sim.kernel import Environment
from repro.workload.generator import fib_family_specs
from tests.traces import multi_function_trace

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "engine_goldens.json"

WINDOW_MS = 150.0
FUNCTIONS = 3
#: (config key, trace seed, total invocations, with faults+resilience)
SCENARIOS = [
    ("vanilla", 42, 240, False),
    ("sfs", 42, 240, False),
    ("kraken", 42, 240, False),
    ("faasbatch", 42, 240, False),
    ("vanilla+faults", 7, 160, True),
    ("faasbatch+faults", 7, 160, True),
]


def _specs():
    return fib_family_specs(FUNCTIONS)


def _kraken_parameters():
    """The paper's porting procedure: learn SLOs from a Vanilla run."""
    base = run_experiment(
        VanillaScheduler(),
        multi_function_trace(seed=42, total=240, functions=FUNCTIONS),
        _specs())
    return KrakenParameters.from_invocations(base.successful_invocations())


def _make_scheduler(key: str, kraken_parameters):
    name = key.split("+")[0]
    if name == "vanilla":
        return VanillaScheduler()
    if name == "sfs":
        return SfsScheduler()
    if name == "kraken":
        return KrakenScheduler(KrakenConfig(parameters=kraken_parameters,
                                            window_ms=WINDOW_MS))
    return FaaSBatchScheduler(FaaSBatchConfig(window_ms=WINDOW_MS))


def _run_artifacts(key: str, kraken_parameters):
    """Run one scenario and return its byte-observable artifacts."""
    _name, seed, total, faulty = next(
        (k, s, t, f) for k, s, t, f in SCENARIOS if k == key)
    trace = multi_function_trace(seed=seed, total=total, functions=FUNCTIONS)
    obs = Observability(tracing=True)
    kwargs = {}
    if faulty:
        kwargs.update(fault_plan=reference_plan(seed=5),
                      resilience=ResiliencePolicy())
    result = run_experiment(
        _make_scheduler(key, kraken_parameters), trace, _specs(),
        window_ms=WINDOW_MS, obs=obs, **kwargs)
    spans = io.StringIO()
    write_jsonl(spans, result.trace)
    return {
        "spans": spans.getvalue(),
        "metrics": json.dumps(result.metrics.snapshot(), sort_keys=True),
        "completion_ms": result.completion_ms,
        "invocations": len(result.invocations),
        "kernel_events": result.kernel_events,
    }


def _digest(artifacts: dict) -> dict:
    return {
        "spans_sha256": hashlib.sha256(
            artifacts["spans"].encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            artifacts["metrics"].encode()).hexdigest(),
        "completion_ms": artifacts["completion_ms"],
        "invocations": artifacts["invocations"],
    }


@pytest.fixture(scope="module")
def kraken_parameters():
    return _kraken_parameters()


@pytest.fixture(scope="module")
def goldens():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("key", [k for k, *_ in SCENARIOS])
def test_engines_byte_identical(key, kraken_parameters, goldens):
    """The run's artifacts are byte-identical to the recorded ones."""
    assert _digest(_run_artifacts(key, kraken_parameters)) == goldens[key], (
        f"{key}: run no longer matches the golden digests")


class _HookedEnvironment(Environment):
    """An environment carrying a no-op time hook from its first instant."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.add_time_hook(lambda _old, _new: None)


@pytest.mark.parametrize("key", [k for k, *_ in SCENARIOS])
def test_noop_time_hook_changes_nothing(key, kraken_parameters, goldens,
                                        monkeypatch):
    """Hooks ride the fused dispatch loop: same goldens, same event count.

    SFS is the one exception to the count: it stops merging time slices
    while a hook is installed, so that the hook sees every slice boundary.
    Its artifacts must still match.
    """
    plain = _run_artifacts(key, kraken_parameters)
    monkeypatch.setattr(experiment, "Environment", _HookedEnvironment)
    hooked = _run_artifacts(key, kraken_parameters)
    assert _digest(hooked) == goldens[key]
    if key != "sfs":
        assert hooked["kernel_events"] == plain["kernel_events"]


def main() -> None:
    params = _kraken_parameters()
    goldens = {key: _digest(_run_artifacts(key, params))
               for key, *_ in SCENARIOS}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} scenarios)")


if __name__ == "__main__":
    main()
