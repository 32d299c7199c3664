"""PR-5 kernel hot-path guarantees: tie-break order, exact timers, API surface.

The kernel optimization pass (slotted events, pre-composed heap keys, lazy
callback storage) must not disturb any observable ordering
contract.  These tests pin the contracts down directly:

* the heap key composes ``(when, priority, sequence)`` — at equal
  timestamps every URGENT event beats every NORMAL event, and each class
  fires in FIFO (creation) order, with cancelled timeouts silently skipped;
* ``Environment.timeout_at`` fires at the exact absolute time it is given;
* the public kernel API relied on by services and perf harnesses stays
  importable and attached.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    Environment,
    Event,
    Timeout,
)


class TestHeapTieBreakProperty:
    """FIFO-within-priority at equal timestamps, under arbitrary mixes."""

    @staticmethod
    def _schedule(env, ops, fired):
        """Create one same-instant event per op token; log firings."""
        created = []
        for index, op in enumerate(ops):
            if op == "urgent":
                env.defer(lambda index=index: fired.append(("urgent",
                                                            index)))
            elif op == "normal":
                timeout = env.timeout(0.0)
                timeout.callbacks.append(
                    lambda _e, index=index: fired.append(("normal", index)))
                created.append((index, timeout))
            else:  # cancelled
                timeout = env.timeout(0.0)
                timeout.callbacks.append(
                    lambda _e, index=index: fired.append(("cancelled",
                                                          index)))
                timeout.cancel()
                created.append((index, timeout))
        return created

    @given(ops=st.lists(st.sampled_from(["urgent", "normal", "cancelled"]),
                        min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_urgent_before_normal_fifo_within_class(self, ops):
        env = Environment()
        fired = []
        self._schedule(env, ops, fired)
        env.run()
        assert env.now == 0.0
        # Cancelled timeouts never fire.
        assert all(kind != "cancelled" for kind, _ in fired)
        # All urgent events beat all normal events at the same instant...
        kinds = [kind for kind, _ in fired]
        assert kinds == sorted(kinds, key=lambda k: k != "urgent")
        # ...and each class preserves creation (FIFO) order.
        expected_urgent = [i for i, op in enumerate(ops) if op == "urgent"]
        expected_normal = [i for i, op in enumerate(ops) if op == "normal"]
        assert [i for kind, i in fired if kind == "urgent"] \
            == expected_urgent
        assert [i for kind, i in fired if kind == "normal"] \
            == expected_normal

    @given(ops=st.lists(st.sampled_from(["urgent", "normal", "cancelled"]),
                        min_size=1, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_cancelled_events_do_not_count_as_processed(self, ops):
        env = Environment()
        fired = []
        self._schedule(env, ops, fired)
        before = env.events_processed
        env.run()
        live = sum(1 for op in ops if op != "cancelled")
        assert env.events_processed - before == live
        assert len(fired) == live


class TestPriorityKeyComposition:
    def test_sequence_survives_priority_packing(self, env):
        # Many same-instant events: the packed (priority | sequence) key
        # must never let sequence bits bleed into the priority bits.
        fired = []
        for index in range(500):
            env.defer(lambda index=index: fired.append(index))
        env.run()
        assert fired == list(range(500))


class TestTimeoutAt:
    def test_fires_at_exact_time(self, env):
        timer = env.timeout_at(7.25)
        assert isinstance(timer, Timeout)
        env.run()
        assert env.now == 7.25 and timer.processed

    def test_rejects_past_time(self):
        env = Environment()
        env.timeout(3.0)
        env.run()
        with pytest.raises(ValueError):
            env.timeout_at(1.0)

    def test_equal_time_fifo_against_relative_timeouts(self, env):
        order = []
        first = env.timeout(4.0)
        first.callbacks.append(lambda _e: order.append("relative"))
        second = env.timeout_at(4.0)
        second.callbacks.append(lambda _e: order.append("absolute"))
        env.run()
        assert order == ["relative", "absolute"]


class TestPublicApiSurface:
    """The surface services/perf harnesses rely on stays attached."""

    def test_kernel_exports(self, env):
        assert callable(Event(env).defuse)
        assert callable(env.defer)
        assert callable(env.timeout_at)
        assert isinstance(env.events_processed, int)

    def test_defuse_suppresses_crash_propagation(self, env):
        event = env.event()
        event.defuse()
        event.fail(RuntimeError("handled elsewhere"))
        env.run()  # would raise without the defuse
