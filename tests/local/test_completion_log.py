"""``LocalPlatform.completed``: every answer counted, the newest kept.

The log numbers answers in answer order; ``len()`` is the count of every
answer ever given, indexing and slicing use those numbers, and only the
newest ``RETAINED`` answers are reachable — so a long-serving platform
holds a bounded number of finished invocations.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.local.runtime import RETAINED, LocalPlatform, LocalPlatformConfig

GROUP = 16


def answer(platform: LocalPlatform, first: int, count: int) -> None:
    """Answer echo requests *first* … *first + count - 1*, in that order:
    one small group at a time, each drained before the next."""
    for start in range(first, first + count, GROUP):
        platform.submit_group("echo", list(range(
            start, min(start + GROUP, first + count))))
        platform.drain(timeout=10)


@pytest.fixture
def platform():
    platform = LocalPlatform(LocalPlatformConfig(
        cold_start_seconds=0.0))
    platform.register("echo", lambda payload, context: payload)
    yield platform
    platform.shutdown()


class TestNumbering:
    def test_counts_every_answer_and_keeps_the_newest(self, platform):
        total = RETAINED + 500
        answer(platform, 0, total)
        completed = platform.completed
        assert len(completed) == total
        assert [inv.payload for inv in completed] == \
            list(range(500, total))
        assert [inv.payload for inv in completed[total - 3:]] == \
            [total - 3, total - 2, total - 1]
        assert completed[-1].payload == total - 1
        assert completed[600].payload == 600
        assert completed[-RETAINED].payload == 500

    def test_slices_reach_only_retained_answers(self, platform):
        total = RETAINED + 500
        answer(platform, 0, total)
        completed = platform.completed
        assert [inv.payload for inv in completed[0:]] == \
            list(range(500, total))
        assert [inv.payload for inv in completed[4:520:7]] == \
            list(range(501, 520, 7))  # 4's stride, from 500 on
        assert [inv.payload for inv in completed[505:495:-2]] == \
            [505, 503, 501]
        assert completed[total:] == []
        with pytest.raises(IndexError):
            completed[499]
        with pytest.raises(IndexError):
            completed[total]

    def test_a_slice_from_the_length_before_is_what_came_since(
            self, platform):
        answer(platform, 0, 100)
        before = len(platform.completed)
        answer(platform, 100, 30)
        assert [inv.payload for inv in platform.completed[before:]] == \
            list(range(100, 130))


class TestMemory:
    def test_retained_bytes_stop_growing_with_answers(self, platform):
        """Once ``RETAINED`` answers are kept, twice as many more leave
        the heap where it was.  A log that kept every answer grew by
        about 360 B per answer here."""
        answer(platform, 0, GROUP)  # container, threads and caches warm
        gc.collect()
        tracemalloc.start()
        try:
            answer(platform, GROUP, RETAINED)
            gc.collect()
            once, _ = tracemalloc.get_traced_memory()
            answer(platform, GROUP + RETAINED, 2 * RETAINED)
            gc.collect()
            thrice, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(platform.completed) == GROUP + 3 * RETAINED
        per_answer = (thrice - once) / (2 * RETAINED)
        assert per_answer <= 20, per_answer
