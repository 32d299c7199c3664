"""Unit tests for the telemetry time-series sampler."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Gauge
from repro.obs.timeseries import (
    DEFAULT_INTERVAL_MS,
    Series,
    TimeSeriesSampler,
    series_records,
)
from repro.sim.kernel import Environment


def _advance(env: Environment, total_ms: float, step_ms: float) -> None:
    """Drive the clock forward in fixed steps via ordinary timeouts."""
    def ticker():
        elapsed = 0.0
        while elapsed < total_ms:
            yield env.timeout(step_ms)
            elapsed += step_ms
    env.run_process(env.process(ticker(), name="ticker"))


class TestSeries:
    def test_validates_construction(self):
        with pytest.raises(ValueError):
            Series("s", interval_ms=0.0)
        with pytest.raises(ValueError):
            Series("s", max_points=3)  # odd
        with pytest.raises(ValueError):
            Series("s", max_points=0)

    def test_append_and_points(self):
        series = Series("s", interval_ms=1000.0)
        series.append(0.0, 1.0)
        series.append(1000.0, 3.0)
        assert series.points() == [(0.0, 1.0), (1000.0, 3.0)]
        assert len(series) == 2

    def test_coalesce_halves_resolution(self):
        series = Series("s", interval_ms=1000.0, max_points=4)
        for tick in range(5):
            series.append(tick * 1000.0, float(tick))
        # Five commits overflow max_points=4: pairs average (keeping the
        # first timestamp), the odd leftover re-opens as the pending tail.
        assert series.points() == [(0.0, 0.5), (2000.0, 2.5),
                                   (4000.0, 4.0)]
        assert series.interval_ms == 2000.0
        assert series.base_interval_ms == 1000.0
        # Later raw samples now accumulate in strides of two.
        series.append(5000.0, 6.0)
        assert series.points()[-1] == (4000.0, 5.0)  # avg(4, 6)

    def test_constant_series_stays_constant_through_coalesces(self):
        series = Series("x", 1.0, max_points=4)
        for tick in range(40):
            series.append(float(tick), 10.0)
        assert series.interval_ms >= 8.0  # three coalesces or more
        assert [value for _time, value in series.points()] == \
            [10.0] * len(series.points())

    @pytest.mark.parametrize("samples", [40, 100, 257])
    def test_each_coalesced_point_is_the_mean_of_its_samples(self, samples):
        series = Series("ramp", 1.0, max_points=4)
        raw = [(float(tick), float(tick * 3 % 17)) for tick in range(samples)]
        for time_ms, value in raw:
            series.append(time_ms, value)
        assert series.interval_ms >= 8.0
        points = series.points()
        starts = [time_ms for time_ms, _value in points] + [float(samples)]
        for (start, value), end in zip(points, starts[1:]):
            covered = [v for t, v in raw if start <= t < end]
            assert value == sum(covered) / len(covered), (start, end)

    def test_length_stays_bounded(self):
        series = Series("s", interval_ms=1.0, max_points=8)
        for tick in range(1000):
            series.append(float(tick), float(tick))
        assert len(series) <= 9  # 8 committed + 1 pending tail

    def test_to_dict_is_json_shaped(self):
        series = Series("s", interval_ms=500.0)
        series.append(0.0, 2.0)
        record = series.to_dict()
        assert record["type"] == "series"
        assert record["name"] == "s"
        assert record["points"] == [[0.0, 2.0]]
        json.dumps(record)  # must serialise cleanly


class TestSampler:
    def test_samples_at_install_and_boundaries(self):
        env = Environment()
        sampler = TimeSeriesSampler(interval_ms=1000.0, enabled=True)
        clock = {"value": 0.0}
        sampler.register_probe("v", lambda: clock["value"])
        sampler.install(env)
        clock["value"] = 7.0
        _advance(env, 3000.0, 500.0)
        times = [t for t, _v in sampler.series("v").points()]
        assert times == [0.0, 1000.0, 2000.0, 3000.0]
        # The install-time sample saw the state before the clock moved.
        assert sampler.series("v").points()[0] == (0.0, 0.0)

    def test_boundaries_crossed_in_one_jump_all_sampled(self):
        env = Environment()
        sampler = TimeSeriesSampler(interval_ms=1000.0, enabled=True)
        sampler.register_probe("v", lambda: 1.0)
        sampler.install(env)
        _advance(env, 3500.0, 3500.0)  # one event jumps the clock 3.5 s
        times = [t for t, _v in sampler.series("v").points()]
        assert times == [0.0, 1000.0, 2000.0, 3000.0]

    def test_sampling_is_pure_observation(self):
        def run(enabled: bool) -> int:
            env = Environment()
            sampler = TimeSeriesSampler(enabled=enabled)
            sampler.register_probe("v", lambda: 1.0)
            sampler.install(env)
            _advance(env, 5000.0, 250.0)
            return env.events_processed
        assert run(True) == run(False)

    def test_deterministic_snapshots(self):
        def run() -> str:
            env = Environment()
            sampler = TimeSeriesSampler(interval_ms=100.0, enabled=True)
            state = {"value": 0.0}
            sampler.register_probe("v", lambda: state["value"])
            sampler.install(env)
            def mutator():
                for step in range(50):
                    yield env.timeout(37.0)
                    state["value"] = float(step)
            env.run_process(env.process(mutator(), name="mutator"))
            return json.dumps(sampler.snapshot(), sort_keys=True)
        assert run() == run()

    def test_disabled_sampler_records_nothing(self):
        env = Environment()
        sampler = TimeSeriesSampler(enabled=False)
        sampler.register_probe("v", lambda: 1.0)
        sampler.install(env)
        _advance(env, 3000.0, 1000.0)
        assert len(sampler.series("v")) == 0

    def test_probe_replacement_keeps_series(self):
        env = Environment()
        sampler = TimeSeriesSampler(interval_ms=1000.0, enabled=True)
        sampler.register_probe("v", lambda: 1.0)
        sampler.install(env)
        sampler.register_probe("v", lambda: 2.0)  # fresh platform, same name
        _advance(env, 1000.0, 1000.0)
        assert [v for _t, v in sampler.series("v").points()] == [1.0, 2.0]

    def test_register_gauge_reads_live_value(self):
        env = Environment()
        sampler = TimeSeriesSampler(interval_ms=1000.0, enabled=True)
        gauge = Gauge("g")
        gauge.set(4.0)
        sampler.register_probe("g", lambda: gauge.value)
        sampler.install(env)
        gauge.set(9.0)
        _advance(env, 1000.0, 1000.0)
        assert [v for _t, v in sampler.series("g").points()] == [4.0, 9.0]

    def test_unknown_series_rejected(self):
        with pytest.raises(KeyError):
            TimeSeriesSampler().series("nope")

    def test_validates_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval_ms=0.0)

    def test_default_interval_is_one_second(self):
        assert DEFAULT_INTERVAL_MS == 1000.0


class TestSeriesRecords:
    def test_records_decorated_and_filtered(self):
        env = Environment()
        sampler = TimeSeriesSampler(interval_ms=1000.0, enabled=True)
        sampler.register_probe("busy", lambda: 2.0)
        sampler.register_probe("idle", lambda: 0.0)
        sampler.install(env)
        _advance(env, 2000.0, 1000.0)
        records = series_records(sampler, extra={"scheduler": "X"})
        assert [r["name"] for r in records] == ["busy", "idle"]
        assert all(r["scheduler"] == "X" for r in records)

    def test_none_sampler_yields_no_records(self):
        assert series_records(None) == []

    def test_empty_series_omitted(self):
        sampler = TimeSeriesSampler(enabled=True)
        sampler.register_probe("v", lambda: 1.0)  # never installed
        assert series_records(sampler) == []
