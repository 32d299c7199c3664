"""The fair-share engine's kernel-event skeleton: coalescing, heap bounds.

What the engine computes is pinned by the golden digests
(``tests/integration/test_engine_equivalence.py``) and the differential
suite (``tests/sim/test_fair_share_differential.py``); these tests pin the
*mechanisms* that decide how many kernel events it costs — same-instant
submit coalescing, flush-on-read for synchronous observers, wake-up-timer
cancellation.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import CpuEngine
from repro.sim.fair_share import FairShareCpu
from repro.sim.kernel import Environment
from repro.sim.sfs_cpu import SfsCpu


def _count_recomputes(cpu: FairShareCpu) -> list:
    """Wrap ``_recompute_and_arm`` to record every invocation."""
    calls = []
    original = cpu._recompute_and_arm

    def counting() -> None:
        calls.append(cpu.env.now)
        original()

    cpu._recompute_and_arm = counting  # type: ignore[method-assign]
    return calls


def _live_wakeups(env: Environment, cpu: FairShareCpu) -> int:
    """Wake-up timers of *cpu* still queued and not cancelled."""
    return sum(1 for _, _, event in env._future._heap
               if not event.cancelled and event._callbacks == cpu._on_wakeup)


class TestCoalescing:
    def test_burst_of_submits_coalesces_into_one_flush(self, env):
        cpu = FairShareCpu(env, cores=4)
        calls = _count_recomputes(cpu)
        for i in range(10):
            cpu.submit(100.0, label=f"t{i}")
        # The first submit reallocates eagerly (the initial scan is armed);
        # the other nine mark the group dirty and share a single deferred
        # flush instead of nine full reallocation passes.
        assert len(calls) == 1
        assert cpu._flush_scheduled
        cpu.current_rate()  # a synchronous reader forces the flush ...
        assert len(calls) == 2
        assert not cpu._flush_scheduled
        assert _live_wakeups(env, cpu) == 1
        cpu.current_rate()  # ... and further reads don't recompute again
        assert len(calls) == 2

    def test_flush_on_read_sees_final_rates(self, env):
        cpu = FairShareCpu(env, cores=4)
        for i in range(8):
            cpu.submit(100.0, label=f"t{i}")
        # 8 tasks x max_share 1.0 on 4 cores: fully utilized, 0.5 each.
        assert cpu.utilization() == pytest.approx(1.0)
        assert cpu.current_rate() == pytest.approx(4.0)

    def test_deferred_flush_completes_work_exactly(self, env):
        cpu = FairShareCpu(env, cores=2)
        done = [cpu.submit(10.0, label=f"t{i}") for i in range(4)]
        env.run()
        assert all(event.triggered for event in done)
        assert cpu.active_tasks == 0
        assert cpu.busy_core_ms() == pytest.approx(40.0)
        # 4 x 10 core-ms on 2 cores, equal shares -> everyone ends at t=20.
        assert env.now == pytest.approx(20.0)

    def test_spread_out_submits_still_reallocate_per_settle(self, env):
        cpu = FairShareCpu(env, cores=1)
        calls = _count_recomputes(cpu)

        def driver():
            for i in range(3):
                cpu.submit(50.0, label=f"t{i}")
                yield env.timeout(5.0)

        env.process(driver())
        env.run(until=12.0)
        # Each submit observed elapsed work (dt > 0), so none may take the
        # coalescing fast path: three eager reallocations.
        assert len(calls) == 3


class TestHeapBounded:
    def test_high_churn_run_keeps_the_event_heap_bounded(self):
        # Regression for lazy wake-up-timer cancellation: every arrival
        # re-arms the engine's wake-up timer, abandoning the previous one.
        # Without cancellation + compaction the heap accumulates one stale
        # timer per arrival; with them it stays proportional to live events.
        env = Environment()
        cpu = FairShareCpu(env, cores=2)
        total = 400

        def driver():
            for i in range(total):
                cpu.submit(1.5, label=f"churn-{i}")
                yield env.timeout(1.0)

        env.process(driver())
        max_heap = 0
        while env.peek() != float("inf"):
            max_heap = max(max_heap, len(env._future))
            env.step()
        assert cpu.active_tasks == 0
        assert cpu.busy_core_ms() == pytest.approx(total * 1.5)
        assert max_heap <= 2 * Environment.COMPACT_THRESHOLD


class TestEngineProtocol:
    def test_all_engines_satisfy_the_protocol(self):
        env = Environment()
        assert isinstance(FairShareCpu(env, cores=2), CpuEngine)
        assert isinstance(SfsCpu(env, cores=2), CpuEngine)
