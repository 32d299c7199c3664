"""Tests for work profiles and their builders."""

from __future__ import annotations

import pytest

from repro.model.workprofile import (
    CpuWork,
    IoWait,
    WorkProfile,
    cpu_profile,
    io_profile,
)
from tests.traces import cpu_work_ms


class TestSegments:
    def test_negative_cpu_work_rejected(self):
        with pytest.raises(ValueError):
            CpuWork(-1.0)

    def test_negative_io_wait_rejected(self):
        with pytest.raises(ValueError):
            IoWait(-0.5)

    def test_segments_are_immutable(self):
        segment = CpuWork(5.0)
        with pytest.raises(AttributeError):
            segment.core_ms = 10.0  # type: ignore[misc]


class TestWorkProfile:
    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            WorkProfile([])

    def test_unknown_segment_rejected(self):
        with pytest.raises(TypeError):
            WorkProfile(["not a segment"])  # type: ignore[list-item]

    def test_iteration_preserves_order(self):
        segments = [CpuWork(1.0), IoWait(2.0)]
        profile = WorkProfile(segments)
        assert list(profile) == segments


class TestBuilders:
    def test_cpu_profile(self):
        profile = cpu_profile(100.0)
        assert list(profile) == [CpuWork(100.0)]

    def test_cpu_profile_with_overhead(self):
        profile = cpu_profile(100.0, overhead_ms=5.0)
        assert cpu_work_ms(profile) == 105.0
        assert len(profile) == 2

    def test_io_profile_shape(self):
        profile = io_profile(factory="boto3.client", args_hash=7,
                             blob_wait_ms=15.0)
        kinds = [type(s).__name__ for s in profile]
        assert kinds == ["ClientCreation", "IoWait", "CpuWork"]
        creation, wait, _work = profile
        assert wait == IoWait(15.0)
        assert creation.factory == "boto3.client"
        assert creation.args_hash == 7
