"""Tests for gateway admission control and shed accounting."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.gateway.admission import (
    SHED_INFLIGHT,
    SHED_QUEUE_DEPTH,
    AdmissionConfig,
    AdmissionController,
)


class TestAdmissionConfig:
    def test_defaults_valid(self):
        config = AdmissionConfig()
        assert config.max_queue_depth >= 1
        assert config.shed_policy == "newest"

    @pytest.mark.parametrize("kwargs", [
        {"max_queue_depth": 0},
        {"max_inflight": 0},
        {"max_inflight": -1},
        {"shed_policy": "random"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(**kwargs)


class TestAdmissionController:
    def test_inflight_cap(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=2))
        assert not controller.over_inflight()
        controller.admit()
        controller.admit()
        assert controller.over_inflight()
        controller.release()
        assert not controller.over_inflight()
        assert controller.admitted == 2
        assert controller.inflight == 1

    def test_queue_depth_bound(self):
        controller = AdmissionController(
            AdmissionConfig(max_queue_depth=3))
        assert not controller.queue_full(2)
        assert controller.queue_full(3)
        assert controller.queue_full(4)

    def test_shed_accounting(self):
        controller = AdmissionController(AdmissionConfig())
        controller.record_shed(SHED_INFLIGHT)
        controller.record_shed(SHED_QUEUE_DEPTH)
        controller.record_shed(SHED_QUEUE_DEPTH)
        stats = controller.stats()
        assert stats["shed"] == {SHED_INFLIGHT: 1, SHED_QUEUE_DEPTH: 2}
        assert stats["shed_policy"] == "newest"
