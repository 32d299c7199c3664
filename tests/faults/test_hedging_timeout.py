"""Timeout watchdog and hedged re-dispatch (cancel-on-first-win)."""

from __future__ import annotations

import pytest

from repro.baselines import VanillaScheduler
from repro.common.errors import InvocationTimeout
from repro.core import FaaSBatchScheduler
from repro.faults.plan import (
    FaultPlan,
    OomKillFault,
    StragglerFault,
    reference_plan,
)
from repro.faults.resilience import ResiliencePolicy
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile
from repro.obs import Observability
from repro.platformsim import run_experiment
from repro.workload.generator import io_function_spec, io_workload_trace
from repro.workload.trace import Trace, TraceRecord


def spec(work_ms=50.0):
    return FunctionSpec(function_id="f", kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(work_ms))


def run_one(work_ms, policy, plan=None):
    return run_experiment(VanillaScheduler(),
                          Trace([TraceRecord(0.0, "f")]), [spec(work_ms)],
                          obs=Observability(tracing=True),
                          fault_plan=plan, resilience=policy)


def counter_value(result, name):
    return result.metrics_snapshot().get(name, {}).get("value", 0)


def annotation_kinds(result):
    return [a.kind for a in result.trace.annotations]


class TestTimeout:
    def test_slow_attempts_time_out_until_exhausted(self):
        policy = ResiliencePolicy(max_attempts=2, timeout_ms=100.0,
                                  backoff_base_ms=10.0)
        result = run_one(work_ms=5000.0, policy=policy)
        assert result.goodput() == 0.0
        failed = result.failed_invocations()[0]
        assert isinstance(failed.error, InvocationTimeout)
        assert failed.attempts == 2
        assert counter_value(result, "resilience.timeouts") == 2
        assert "invocation-timeout" in annotation_kinds(result)

    def test_fast_work_never_times_out(self):
        policy = ResiliencePolicy(max_attempts=3, timeout_ms=60000.0)
        result = run_one(work_ms=50.0, policy=policy)
        assert result.goodput() == 1.0
        assert result.invocations[0].attempts == 1
        assert counter_value(result, "resilience.timeouts") == 0


class TestHedging:
    def test_primary_win_cancels_shadow(self):
        # Fast primary: the hedge launches (cold start alone outlasts the
        # remaining work) and its shadow is cancelled when the primary wins.
        policy = ResiliencePolicy(max_attempts=1, hedge_after_ms=20.0)
        result = run_one(work_ms=400.0, policy=policy)
        assert result.goodput() == 1.0
        invocation = result.invocations[0]
        assert invocation.attempts == 1
        assert not invocation.hedged
        assert counter_value(result, "resilience.hedges") == 1
        assert counter_value(result, "resilience.hedge_wins") == 0
        assert "hedge-launched" in annotation_kinds(result)
        assert "hedge-won" not in annotation_kinds(result)

    # Throttled to 0.1% CPU, 2 s of work takes over a minute -- far longer
    # than the shadow's cold start plus full-speed execution, so the shadow
    # must win the race.
    STRAGGLE = FaultPlan(stragglers=(
        StragglerFault(ordinal=1, after_start_ms=0.0,
                       duration_ms=600000.0, cpu_scale=0.001),))

    def test_straggling_primary_loses_to_shadow(self):
        policy = ResiliencePolicy(max_attempts=1, hedge_after_ms=50.0)
        result = run_one(work_ms=2000.0, policy=policy, plan=self.STRAGGLE)
        assert result.goodput() == 1.0
        invocation = result.invocations[0]
        assert invocation.hedged
        assert counter_value(result, "resilience.hedge_wins") == 1
        assert "hedge-won" in annotation_kinds(result)
        # The adopted result must be far faster than the straggler could
        # ever manage (2 s of work at 0.1% speed).
        assert invocation.end_to_end_ms < 20000.0

    def test_hedge_wins_reported_in_results(self):
        policy = ResiliencePolicy(max_attempts=1, hedge_after_ms=50.0)
        result = run_one(work_ms=2000.0, policy=policy, plan=self.STRAGGLE)
        assert result.hedged_count() == 1

    @pytest.mark.parametrize("plan", [
        reference_plan(),
        FaultPlan(oom_kills=(OomKillFault(threshold_mb=2500.0,
                                          max_kills=3),)),
    ], ids=["reference", "oom"])
    def test_batched_hedges_answer_every_invocation_once(self, plan):
        """Regression: under FaaSBatch's batch return, a primary stood down
        by a winning hedge abandoned the shared client build, and the
        invocations waiting on it ended with neither a result nor an
        error, so answering the batch raised ``SchedulingError``."""
        result = run_experiment(
            FaaSBatchScheduler(), io_workload_trace(seed=13, total=200),
            [io_function_spec()], fault_plan=plan,
            resilience=ResiliencePolicy(max_attempts=4, hedge_after_ms=100.0))
        assert counter_value(result, "resilience.hedge_wins") > 0
        assert sorted(i.invocation_id for i in result.invocations) \
            == sorted(f"inv-{n}" for n in range(200))
        assert all(i.responded_ms is not None for i in result.invocations)
        assert result.goodput() == 1.0
