"""Streaming trace synthesis: TraceStream contract + old-vs-new equivalence."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench import BenchConfig, bench_trace
from repro.common.errors import WorkloadError
from repro.workload.azure import (
    iter_tiled_replay_arrivals,
    replay_minute_arrivals,
    tiled_replay_tile_count,
)
from repro.workload.generator import (
    tiled_fib_function_counts,
    tiled_fib_stream,
)
from repro.workload.trace import TraceRecord, TraceStream


def _triples(records):
    return [(r.arrival_ms, r.function_id, r.payload) for r in records]


class TestTraceStreamContract:
    def _stream(self, count=3):
        def factory():
            return iter(TraceRecord(arrival_ms=float(i), function_id="f")
                        for i in range(count))
        return TraceStream(factory, count=count, end_ms=float(count))

    def test_len_and_bounds_without_consumption(self):
        stream = self._stream(5)
        assert len(stream) == 5
        assert stream.end_ms == 5.0
        assert stream.duration_ms == 5.0

    def test_every_iteration_is_fresh(self):
        stream = self._stream()
        assert _triples(stream) == _triples(stream)

    def test_rejects_raw_generator(self):
        def generate():
            yield TraceRecord(arrival_ms=0.0, function_id="f")
        with pytest.raises(WorkloadError, match="factory"):
            TraceStream(generate(), count=1, end_ms=1.0)

    def test_rejects_factory_returning_non_iterator(self):
        stream = TraceStream(lambda: [1, 2, 3], count=3, end_ms=3.0)
        with pytest.raises(WorkloadError, match="iterator"):
            iter(stream)

    def test_detects_reused_exhausted_iterator(self):
        # The classic bug this class exists to kill: a "factory" that
        # closes over one generator hands back an exhausted iterator on
        # the second pass and would silently yield nothing.
        generator = iter(TraceRecord(arrival_ms=float(i), function_id="f")
                         for i in range(3))
        stream = TraceStream(lambda: generator, count=3, end_ms=3.0)
        assert len(list(stream)) == 3
        with pytest.raises(WorkloadError, match="same iterator"):
            iter(stream)

    def test_rejects_out_of_order_records(self):
        def factory():
            return iter([TraceRecord(arrival_ms=5.0, function_id="f"),
                         TraceRecord(arrival_ms=1.0, function_id="f")])
        with pytest.raises(WorkloadError, match="out of order"):
            list(TraceStream(factory, count=2, end_ms=10.0))

    def test_rejects_count_shortfall_and_overrun(self):
        def two():
            return iter([TraceRecord(arrival_ms=0.0, function_id="f"),
                         TraceRecord(arrival_ms=1.0, function_id="f")])
        with pytest.raises(WorkloadError, match="declared"):
            list(TraceStream(two, count=3, end_ms=10.0))
        with pytest.raises(WorkloadError, match="more than"):
            list(TraceStream(two, count=1, end_ms=10.0))

    def test_rejects_bad_metadata(self):
        factory = self._stream()._factory
        with pytest.raises(WorkloadError):
            TraceStream(factory, count=0, end_ms=1.0)
        with pytest.raises(WorkloadError):
            TraceStream(factory, count=1, end_ms=-1.0, start_ms=0.0)

    def test_materialize_round_trip(self):
        trace = self._stream(4).materialize()
        assert len(trace) == 4
        assert trace.end_ms == 3.0


class TestArrivalIterators:
    def test_tiled_arrivals_match_manual_tiling(self):
        tiled = list(iter_tiled_replay_arrivals(total=250,
                                                tile_invocations=100,
                                                seed=9))
        assert [index for index, _arrival in tiled] == list(range(250))
        manual = []
        for tile, count in enumerate((100, 100, 50)):
            offset = tile * 60_000.0
            manual.extend(offset + a for a in replay_minute_arrivals(
                seed=9 + tile, total=count))
        assert [arrival for _index, arrival in tiled] == manual

    def test_tiled_arrivals_are_globally_sorted(self):
        arrivals = [a for _i, a in iter_tiled_replay_arrivals(
            total=300, tile_invocations=120, seed=4)]
        assert arrivals == sorted(arrivals)

    def test_tile_count(self):
        assert tiled_replay_tile_count(250, 100) == 3
        assert tiled_replay_tile_count(200, 100) == 2
        with pytest.raises(WorkloadError):
            tiled_replay_tile_count(0, 100)

    def test_tiled_rejects_bad_totals(self):
        with pytest.raises(WorkloadError):
            list(iter_tiled_replay_arrivals(total=0, tile_invocations=10))
        with pytest.raises(WorkloadError):
            list(iter_tiled_replay_arrivals(total=10, tile_invocations=0))


class TestStreamEquivalence:
    """Streaming synthesis is byte-identical to the materialized path."""

    def test_tiled_fib_stream_matches_bench_trace(self):
        config = BenchConfig(invocations=9_500, functions=8, seed=13,
                             tile_invocations=4000)
        stream = tiled_fib_stream(invocations=9_500, functions=8, seed=13,
                                  tile_invocations=4000)
        assert _triples(stream) == _triples(bench_trace(config).records())

    def test_tiled_fib_stream_rewinds_identically(self):
        stream = tiled_fib_stream(invocations=500, functions=4, seed=3,
                                  tile_invocations=200)
        assert _triples(stream) == _triples(stream)

    @pytest.mark.parametrize("invocations,functions,tile", [
        (1, 1, 1), (5, 8, 2), (7, 3, 2), (1_000, 8, 4000), (2_503, 8, 500),
        (3_001, 5, 999), (999, 13, 1)])
    def test_tiled_fib_function_counts_match_a_walk(self, invocations,
                                                    functions, tile):
        walked = Counter(record.function_id for record in tiled_fib_stream(
            invocations=invocations, functions=functions, seed=5,
            tile_invocations=tile))
        counts = tiled_fib_function_counts(invocations, functions)
        assert counts == {fid: walked[fid] for fid in counts}
        assert sum(counts.values()) == invocations
        with pytest.raises(ValueError):
            tiled_fib_function_counts(10, 0)

    def test_streams_are_seed_stable(self):
        first = tiled_fib_stream(invocations=90, functions=2, seed=11,
                                 tile_invocations=40)
        second = tiled_fib_stream(invocations=90, functions=2, seed=11,
                                  tile_invocations=40)
        assert _triples(first) == _triples(second)
        different = tiled_fib_stream(invocations=90, functions=2, seed=12,
                                     tile_invocations=40)
        assert _triples(first) != _triples(different)
