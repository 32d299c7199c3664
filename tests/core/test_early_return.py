"""Tests for the early-return extension (the paper's §III-C future work)."""

from __future__ import annotations

import pytest

from repro.common.errors import SchedulingError
from repro.core import FaaSBatchConfig, FaaSBatchScheduler
from repro.model.function import FunctionKind, FunctionSpec, Invocation
from repro.platformsim import run_experiment
from repro.workload.generator import cpu_workload_trace, fib_function_spec
from repro.workload.trace import Trace, TraceRecord
from repro.model.workprofile import cpu_profile


def mixed_duration_trace():
    """One burst with one long and many short invocations of one function."""
    records = [TraceRecord(arrival_ms=0.0, function_id="mixed",
                           payload=5_000.0)]  # the straggler
    records += [TraceRecord(arrival_ms=1.0, function_id="mixed", payload=10.0)
                for _ in range(20)]
    return Trace(records)


def mixed_spec():
    return FunctionSpec(
        function_id="mixed", kind=FunctionKind.CPU,
        profile_factory=lambda payload: cpu_profile(float(payload)))


class TestInvocationResponseStamps:
    def make(self):
        spec = fib_function_spec()
        return Invocation("i", spec, payload=26, arrival_ms=0.0)

    def test_respond_before_completion_rejected(self):
        invocation = self.make()
        with pytest.raises(SchedulingError):
            invocation.mark_responded(10.0)

    def test_respond_twice_rejected(self):
        invocation = self.make()
        invocation.mark_dispatched(1.0, 0.0)
        invocation.mark_execution_start(1.0)
        invocation.mark_completed(5.0)
        invocation.mark_responded(7.0)
        with pytest.raises(SchedulingError):
            invocation.mark_responded(8.0)

    def test_response_cannot_precede_completion(self):
        invocation = self.make()
        invocation.mark_dispatched(1.0, 0.0)
        invocation.mark_execution_start(1.0)
        invocation.mark_completed(5.0)
        with pytest.raises(SchedulingError):
            invocation.mark_responded(4.0)

    def test_response_latency(self):
        invocation = self.make()
        invocation.mark_dispatched(1.0, 0.0)
        invocation.mark_execution_start(1.0)
        invocation.mark_completed(5.0)
        invocation.mark_responded(9.0)
        assert invocation.response_latency_ms == pytest.approx(9.0)


class TestEarlyReturnSemantics:
    def test_published_semantics_hold_response_for_group(self):
        result = run_experiment(FaaSBatchScheduler(), mixed_duration_trace(),
                                [mixed_spec()])
        # Without early return every group member responds together: short
        # invocations wait for the 5-second straggler.
        responded = sorted({round(i.responded_ms, 3)
                            for i in result.invocations})
        assert len(responded) == 1
        shorts = [i for i in result.invocations if i.payload == 10.0]
        assert all(i.response_latency_ms > 4_000.0 for i in shorts)

    def test_early_return_frees_short_invocations(self):
        scheduler = FaaSBatchScheduler(FaaSBatchConfig(early_return=True))
        result = run_experiment(scheduler, mixed_duration_trace(),
                                [mixed_spec()])
        shorts = [i for i in result.invocations if i.payload == 10.0]
        straggler = next(i for i in result.invocations
                         if i.payload == 5_000.0)
        # Short invocations respond as soon as they finish...
        assert all(i.response_latency_ms < 1_500.0 for i in shorts)
        # ...which is before the straggler's response.
        assert straggler.responded_ms > max(i.responded_ms for i in shorts)
        # Completion timing (and hence the paper's latency metrics) is
        # unchanged: only the response point moves.
        assert all(i.responded_ms == pytest.approx(i.completed_ms)
                   for i in result.invocations)

    def test_early_return_identical_execution_metrics(self):
        trace = cpu_workload_trace(total=80)
        spec = fib_function_spec()
        held = run_experiment(FaaSBatchScheduler(), trace, [spec])
        early = run_experiment(
            FaaSBatchScheduler(FaaSBatchConfig(early_return=True)),
            trace, [spec])
        # Same containers and same per-invocation completion profile.
        assert held.provisioned_containers == early.provisioned_containers
        held_exec = sorted(i.latency.execution_ms for i in held.invocations)
        early_exec = sorted(i.latency.execution_ms
                            for i in early.invocations)
        assert held_exec == pytest.approx(early_exec)
        # But the response tail improves (or at worst matches).
        assert early.response_latency_cdf().quantile(0.5) <= \
            held.response_latency_cdf().quantile(0.5) + 1e-6


class TestEarlyReturnBookkeeping:
    def run_with_listener(self):
        """Run the mixed burst with early return, counting note_completed."""
        from repro.platformsim.experiment import run_workers

        trace = mixed_duration_trace()
        completed: list = []
        completions: dict = {}

        def listener(inv):
            completed.append(inv)
            completions[inv.invocation_id] = \
                completions.get(inv.invocation_id, 0) + 1

        with run_workers({0: FaaSBatchScheduler(
                FaaSBatchConfig(early_return=True))}, trace,
                lambda _record: 0, [mixed_spec()], listener, until_ms=None):
            pass
        return completed, completions, len(trace)

    def test_note_completed_fires_exactly_once_per_invocation(self):
        completed, completions, total = self.run_with_listener()
        assert len(completions) == total
        assert all(count == 1 for count in completions.values())
        assert len(completed) == total

    def test_response_times_differ_from_batch_completion(self):
        completed, _completions, _total = self.run_with_listener()
        batch_end = max(inv.completed_ms for inv in completed)
        shorts = [inv for inv in completed if inv.payload == 10.0]
        # Under early return each member responds at its own completion,
        # not at the group barrier: the shorts' response instants precede
        # the straggler-dominated batch completion.
        assert all(inv.responded_ms < batch_end for inv in shorts)
        assert all(inv.responded_ms == pytest.approx(inv.completed_ms)
                   for inv in completed)


class TestWarmReuseKeepsMultiplexerCaches:
    def test_second_burst_reuses_container_and_cached_clients(self):
        # Fig. 8 (λ_A3): a warm-container hit must keep the resource
        # multiplexer's client cache, so a later burst creates no new
        # clients.  Two bursts, 5 s apart, well inside the 60 s keep-alive.
        from repro.workload.generator import io_function_spec

        spec = io_function_spec()
        records = [TraceRecord(arrival_ms=float(i), function_id=spec.function_id,
                               payload=i) for i in range(4)]
        records += [TraceRecord(arrival_ms=5_000.0 + i,
                                function_id=spec.function_id, payload=10 + i)
                    for i in range(4)]
        result = run_experiment(FaaSBatchScheduler(), Trace(records), [spec])
        assert result.provisioned_containers == 1
        assert result.clients_created == 1       # one S3 client, ever
        assert result.multiplexer_entries == 1   # one cache miss, burst 1


class TestBaselineResponseSemantics:
    def test_vanilla_response_equals_completion(self):
        from repro.baselines import VanillaScheduler
        trace = cpu_workload_trace(total=40)
        result = run_experiment(VanillaScheduler(), trace,
                                [fib_function_spec()])
        for invocation in result.invocations:
            assert invocation.responded_ms == pytest.approx(
                invocation.completed_ms)

    def test_kraken_batch_members_respond_together(self):
        from repro.baselines import (KrakenConfig, KrakenParameters,
                                     KrakenScheduler, VanillaScheduler)
        trace = cpu_workload_trace(total=60)
        spec = fib_function_spec()
        vanilla = run_experiment(VanillaScheduler(), trace, [spec])
        params = KrakenParameters.from_invocations(vanilla.invocations)
        kraken = run_experiment(
            KrakenScheduler(KrakenConfig(parameters=params)), trace, [spec])
        # Responses come in far fewer distinct instants than completions.
        response_instants = {round(i.responded_ms, 6)
                             for i in kraken.invocations}
        completion_instants = {round(i.completed_ms, 6)
                               for i in kraken.invocations}
        assert len(response_instants) <= len(completion_instants)
        for invocation in kraken.invocations:
            assert invocation.responded_ms >= invocation.completed_ms
