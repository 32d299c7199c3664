"""Tests for the empirical CDF."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cdf import EmpiricalCdf


class TestEmpiricalCdf:
    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])

    def test_probability_at_step_points(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.probability_at(0.5) == 0.0
        assert cdf.probability_at(1.0) == 0.25
        assert cdf.probability_at(2.5) == 0.5
        assert cdf.probability_at(4.0) == 1.0
        assert cdf.probability_at(100.0) == 1.0

    def test_quantile_inverts_probability(self):
        cdf = EmpiricalCdf([10.0, 20.0, 30.0, 40.0])
        assert cdf.quantile(0.25) == 10.0
        assert cdf.quantile(0.5) == 20.0
        assert cdf.quantile(1.0) == 40.0

    def test_quantile_range_validated(self):
        cdf = EmpiricalCdf([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_fraction_within(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0, 5.0])
        assert cdf.fraction_within(1.0, 3.0) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            cdf.fraction_within(3.0, 1.0)

    def test_series_covers_unit_interval(self):
        cdf = EmpiricalCdf(range(100))
        series = cdf.series(points=10)
        assert len(series) == 10
        assert series[-1].probability == 1.0
        assert series[-1].x == cdf.maximum
        xs = [p.x for p in series]
        assert xs == sorted(xs)

    def test_series_needs_two_points(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0]).series(points=1)

    @settings(max_examples=150, deadline=None)
    @given(samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
           p=st.floats(0.01, 1.0))
    def test_quantile_probability_round_trip(self, samples, p):
        cdf = EmpiricalCdf(samples)
        x = cdf.quantile(p)
        # F(quantile(p)) >= p: the defining Galois property.
        assert cdf.probability_at(x) >= p - 1e-9
        assert cdf.minimum <= x <= cdf.maximum

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40))
    def test_probability_is_monotone(self, samples):
        cdf = EmpiricalCdf(samples)
        xs = sorted(samples)
        probabilities = [cdf.probability_at(x) for x in xs]
        assert probabilities == sorted(probabilities)
