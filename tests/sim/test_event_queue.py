"""The kernel's future-event heap against a plain sorted-list model.

Random operation sequences (push, pop, next_due, pop_until, min_when,
cancel, compact) drive ``_HeapQueue`` and a sorted list side by
side; after every step the two must agree on what came out, on how many
entries are held, and on the tombstone accounting against the owning
environment's cancellation counter.  The contract regressions (same-instant
FIFO, a far-future outlier, cancel-everything-then-reuse, ``pop_until``
returning the entry) are fixed inputs to the same check.  A kernel-level
test runs a random timeout/cancel workload on an :class:`Environment` and
checks the firing order against ``(when, creation order)``.
"""

from __future__ import annotations

import random
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment, _HeapQueue

_INF = float("inf")


class _FakeEnv:
    """Just the cancellation counter the queue accounts against."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = 0


class _FakeEvent:
    """The three attributes the queue touches, nothing more."""

    __slots__ = ("cancelled", "_callbacks", "env")

    def __init__(self, env: _FakeEnv) -> None:
        self.cancelled = False
        self._callbacks = []
        self.env = env


class _Checked:
    """A ``_HeapQueue`` and the sorted list that says what it must do."""

    def __init__(self) -> None:
        self.queue = _HeapQueue()
        self.env = _FakeEnv()
        #: Every entry the queue should still hold, ascending ``(when,
        #: seq)``; *seq* is unique, so comparison never reaches the event.
        self.model: list[tuple[float, int, _FakeEvent]] = []
        self.seq = 0

    def _entry(self, when: float) -> tuple[float, int, _FakeEvent]:
        self.seq += 1
        return (when, self.seq, _FakeEvent(self.env))

    def _surface(self) -> None:
        """Tombstones ahead of the first live entry are dropped on sight."""
        while self.model and self.model[0][2].cancelled:
            self.model.pop(0)

    def _agree(self) -> None:
        assert len(self.queue) == len(self.model)
        assert self.env._cancelled == sum(
            entry[2].cancelled for entry in self.model)

    @property
    def live(self) -> list[tuple[float, int, _FakeEvent]]:
        return [entry for entry in self.model if not entry[2].cancelled]

    def push(self, when: float) -> None:
        entry = self._entry(when)
        self.queue.push(*entry)
        insort(self.model, entry)
        self._agree()

    def cancel(self, choice: int) -> None:
        live = self.live
        if live:
            live[choice % len(live)][2].cancelled = True
            self.env._cancelled += 1

    def pop(self) -> None:
        if not self.live:
            return
        self._surface()
        assert self.queue.pop() is self.model.pop(0)[2]
        self._agree()

    def min_when(self) -> None:
        self._surface()
        assert self.queue.min_when() == (
            self.model[0][0] if self.model else _INF)
        self._agree()

    def next_due(self, now: float) -> None:
        self._surface()
        if self.model and self.model[0][0] <= now:
            assert self.queue.next_due(now) is self.model.pop(0)[2]
        else:
            got = self.queue.next_due(now)
            assert type(got) is float
            assert got == (self.model[0][0] if self.model else _INF)
        self._agree()

    def pop_until(self, bound: float) -> None:
        self._surface()
        if self.model and self.model[0][0] <= bound:
            # The entry itself, not just its event: the kernel reads the
            # time to advance to from it.
            assert self.queue.pop_until(bound) == self.model.pop(0)
        else:
            got = self.queue.pop_until(bound)
            assert type(got) is float
            assert got == (self.model[0][0] if self.model else _INF)
        self._agree()

    def compact(self) -> None:
        tombstones = [e[2] for e in self.model if e[2].cancelled]
        # The kernel owns the counter decrement at the compaction site
        # (``self._cancelled -= self._future.compact()``); do the same.
        removed = self.queue.compact()
        self.env._cancelled -= removed
        assert removed == len(tombstones)
        assert all(event._callbacks is None for event in tombstones)
        self.model = self.live
        self._agree()

    def drain(self) -> None:
        while self.live:
            self.min_when()
            self.pop()
        assert self.queue.min_when() == _INF
        assert len(self.queue) == 0
        assert self.env._cancelled == 0


def check(ops) -> None:
    """Run ``(name, argument)`` operations through heap and model."""
    checked = _Checked()
    for name, arg in ops:
        if arg is None:
            getattr(checked, name)()
        else:
            getattr(checked, name)(arg)
    checked.drain()


_WHENS = st.one_of(
    # Dense and sparse spreads.
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
    # Integral instants collide constantly: the (when, seq) FIFO tie-break.
    st.integers(min_value=0, max_value=12).map(float),
    # Far-future outliers.
    st.floats(min_value=1e9, max_value=1e12, allow_nan=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _WHENS),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("next_due"), _WHENS),
        st.tuples(st.just("pop_until"), _WHENS),
        st.tuples(st.just("min_when"), st.none()),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("compact"), st.none()),
    ),
    min_size=1, max_size=120,
)

_REGRESSIONS = {
    "same-instant burst pops in push order":
        [("push", 7.0)] * 64,
    "far-future outlier still surfaces":
        [("push", 0.5), ("push", 1e12), ("pop", None), ("min_when", None)],
    "cancel everything, then reuse":
        [("push", float(i)) for i in range(32)]
        + [("cancel", 0)] * 32
        + [("min_when", None), ("push", 3.25)],
    "pop_until returns the entry, then the empty-queue float":
        [("push", 2.5), ("pop_until", 2.5), ("pop_until", 100.0)],
}


class TestHeapAgainstSortedList:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_random_interleavings_agree(self, ops):
        check(ops)

    @pytest.mark.parametrize("ops", _REGRESSIONS.values(),
                             ids=list(_REGRESSIONS))
    def test_contract_regressions(self, ops):
        check(ops)


class TestKernelFiringOrder:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_timeout_workload_fires_in_when_then_creation_order(
            self, seed):
        rng = random.Random(seed)
        env = Environment()
        created: list = []   # (when, creation index, value) per live timeout
        fired: list = []

        def worker(tag: int):
            for step in range(rng.randrange(1, 5)):
                delay = rng.choice([0.0, 0.125, 1.0, 3.5, 1e7])
                timeout = env.timeout(delay)
                created.append((env.now + delay, len(created), (tag, step)))
                if rng.random() < 0.2:
                    env.timeout(delay + 1.0).cancel()
                yield timeout
                fired.append((tag, step))

        workers = 12
        for tag in range(workers):
            env.process(worker(tag), name=f"w{tag}")
        background = sorted(rng.uniform(0.0, 50.0) for _ in range(40))
        for when in background:
            env.timeout_at(when)
        env.run()
        assert fired == [value for _when, _index, value in sorted(created)]
        # One start and one completion per worker, plus every live timeout.
        assert env.events_processed == (
            2 * workers + len(created) + len(background))
        assert env.now == max(background[-1], max(created)[0])
        assert env._cancelled == 0
