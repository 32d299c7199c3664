"""Chaos runs are deterministic; an empty plan changes nothing at all."""

from __future__ import annotations

import io

import pytest

from repro.baselines import VanillaScheduler
from repro.core import FaaSBatchScheduler
from repro.faults.plan import FaultPlan, reference_plan
from repro.faults.resilience import ResiliencePolicy
from repro.obs import Observability
from repro.obs.trace import write_jsonl
from repro.platformsim import run_experiment
from repro.workload import io_function_spec, io_workload_trace


def fingerprint(result):
    """A complete, order-sensitive digest of one experiment result."""
    return (
        result.provisioned_containers,
        result.completion_ms,
        tuple((i.invocation_id, i.attempts, i.hedged,
               i.completed_ms, i.responded_ms,
               type(i.error).__name__ if i.error is not None else None,
               tuple((a.attempt, a.dispatched_ms, a.completed_ms, a.error)
                     for a in i.attempt_history))
              for i in result.invocations),
        tuple((s.time_ms, s.memory_mb, s.cpu_utilization)
              for s in result.samples),
    )


def trace_jsonl(result):
    buffer = io.StringIO()
    write_jsonl(buffer, result.trace)
    return buffer.getvalue()


def chaos_run(scheduler_factory, seed):
    return run_experiment(
        scheduler_factory(),
        io_workload_trace(total=30, seed=7), [io_function_spec()],
        obs=Observability(tracing=True),
        fault_plan=reference_plan(seed=seed),
        resilience=ResiliencePolicy(max_attempts=5, backoff_base_ms=50.0,
                                    seed=seed))


class TestChaosDeterminism:
    @pytest.mark.parametrize("factory", [VanillaScheduler,
                                         FaaSBatchScheduler])
    def test_same_seed_is_byte_identical(self, factory):
        first = chaos_run(factory, seed=11)
        second = chaos_run(factory, seed=11)
        assert fingerprint(first) == fingerprint(second)
        assert trace_jsonl(first) == trace_jsonl(second)
        assert first.metrics_snapshot() == second.metrics_snapshot()

    def test_chaos_run_actually_retried(self):
        # Guard against this suite passing vacuously: the reference plan
        # must actually perturb the run it replays against.
        result = chaos_run(VanillaScheduler, seed=11)
        assert result.retried_invocations()


class TestEmptyPlanIsInert:
    def test_empty_plan_bit_identical_to_no_injector(self):
        trace = io_workload_trace(total=30, seed=7)
        spec = io_function_spec()
        bare = run_experiment(VanillaScheduler(), trace, [spec],
                              obs=Observability(tracing=True))
        empty = run_experiment(VanillaScheduler(), trace, [spec],
                               obs=Observability(tracing=True),
                               fault_plan=FaultPlan())
        assert fingerprint(bare) == fingerprint(empty)
        assert trace_jsonl(bare) == trace_jsonl(empty)

    def test_policy_without_faults_is_inert(self):
        # A resilience layer with nothing to recover from must not change
        # the run either (no timeouts/hedging configured).
        trace = io_workload_trace(total=30, seed=7)
        spec = io_function_spec()
        bare = run_experiment(VanillaScheduler(), trace, [spec],
                              obs=Observability(tracing=True))
        guarded = run_experiment(VanillaScheduler(), trace, [spec],
                                 obs=Observability(tracing=True),
                                 resilience=ResiliencePolicy(max_attempts=5))
        assert fingerprint(bare) == fingerprint(guarded)
        assert trace_jsonl(bare) == trace_jsonl(guarded)
