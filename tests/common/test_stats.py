"""Tests for SampleStats, Ewma and the module helpers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import Ewma, SampleStats, mean, percentile


class TestSampleStats:
    def test_empty_stats_raise(self):
        stats = SampleStats()
        assert len(stats) == 0
        with pytest.raises(ValueError):
            _ = stats.mean

    def test_basic_summaries(self):
        stats = SampleStats([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.total == 10.0
        assert stats.median == pytest.approx(2.5)

    def test_percentile_interpolates(self):
        stats = SampleStats([0.0, 10.0])
        assert stats.percentile(50.0) == pytest.approx(5.0)
        assert stats.percentile(0.0) == 0.0
        assert stats.percentile(100.0) == 10.0

    def test_percentile_out_of_range(self):
        stats = SampleStats([1.0])
        with pytest.raises(ValueError):
            stats.percentile(101.0)

    def test_nan_rejected(self):
        stats = SampleStats()
        with pytest.raises(ValueError):
            stats.add(float("nan"))

    def test_values_preserve_insertion_order(self):
        stats = SampleStats([3.0, 1.0, 2.0])
        assert stats.values() == (3.0, 1.0, 2.0)
        # Percentile queries must not disturb the reported order.
        stats.percentile(50.0)
        assert stats.values() in ((3.0, 1.0, 2.0), (1.0, 2.0, 3.0))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           q=st.floats(0.0, 100.0))
    def test_percentile_bounded_by_extremes(self, values, q):
        stats = SampleStats(values)
        result = stats.percentile(q)
        assert stats.minimum - 1e-9 <= result <= stats.maximum + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    def test_percentile_monotone_in_q(self, values):
        stats = SampleStats(values)
        quantiles = [stats.percentile(q) for q in (0, 25, 50, 75, 100)]
        assert quantiles == sorted(quantiles)


class TestEwma:
    def test_first_observation_initialises(self):
        ewma = Ewma(alpha=0.5)
        assert not ewma.initialized
        assert ewma.observe(10.0) == 10.0
        assert ewma.initialized

    def test_update_rule(self):
        ewma = Ewma(alpha=0.5)
        ewma.observe(0.0)
        assert ewma.observe(10.0) == pytest.approx(5.0)
        assert ewma.observe(10.0) == pytest.approx(7.5)

    def test_value_before_observation_raises(self):
        with pytest.raises(ValueError):
            _ = Ewma().value

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)

    @settings(max_examples=50, deadline=None)
    @given(target=st.floats(-100.0, 100.0), alpha=st.floats(0.05, 1.0))
    def test_converges_to_constant_signal(self, target, alpha):
        ewma = Ewma(alpha=alpha)
        for _ in range(300):
            ewma.observe(target)
        assert math.isclose(ewma.value, target, rel_tol=1e-3, abs_tol=1e-3)


class TestHelpers:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_one_shot(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0
