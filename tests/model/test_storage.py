"""Tests for the storage client cost model (Fig. 4 / Fig. 5 calibration)."""

from __future__ import annotations

import pytest

from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.storage import ClientInstance, StorageClientCostModel


@pytest.fixture
def model():
    return StorageClientCostModel.from_calibration(DEFAULT_CALIBRATION)


class TestCostModel:
    def test_uncontended_creation_matches_fig4(self, model):
        """Fig. 4: ~66 ms to create one S3 client at concurrency 1."""
        assert model.creation_work_ms(1) == pytest.approx(66.0)

    def test_contended_creation_matches_fig4(self, model):
        """Fig. 4: creation at concurrency 9 costs ~48x concurrency 1."""
        ratio = model.creation_work_ms(9) / model.creation_work_ms(1)
        assert 40.0 < ratio < 55.0
        # Absolute check: the paper reports ~3165 ms.
        assert 2_800.0 < model.creation_work_ms(9) < 3_500.0

    def test_cost_is_monotone_in_concurrency(self, model):
        costs = [model.creation_work_ms(c) for c in range(1, 11)]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_invalid_concurrency_rejected(self, model):
        with pytest.raises(ValueError):
            model.creation_work_ms(0)

    def test_memory_matches_fig14d(self, model):
        """Fig. 14(d): ~15 MB resident per client under baseline policies."""
        assert model.memory_mb(1) == pytest.approx(15.0)
        assert model.memory_mb(4) == pytest.approx(60.0)

    def test_memory_rejects_negative(self, model):
        with pytest.raises(ValueError):
            model.memory_mb(-1)

    def test_fig5_shape_with_custom_calibration(self):
        """Fig. 5's measurement (9 MB at c=1 to ~60 MB at c=9) is a linear
        per-instance growth; a re-calibrated model reproduces it."""
        model = StorageClientCostModel(base_work_ms=66.0,
                                       contention_exponent=1.76,
                                       client_memory_mb=6.4)
        base = 2.6  # container baseline before the first client
        assert base + model.memory_mb(1) == pytest.approx(9.0)
        assert base + model.memory_mb(9) == pytest.approx(60.2)


class TestClientInstance:
    def test_repr_and_fields(self):
        instance = ClientInstance(factory="boto3", args_hash=0xAB,
                                  created_at_ms=5.0, memory_mb=15.0)
        assert instance.factory == "boto3"
        assert "15.0MB" in repr(instance)

