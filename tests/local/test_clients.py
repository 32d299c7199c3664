"""Tests for the fake storage clients."""

from __future__ import annotations

import time

import pytest

from repro.common.errors import ReproError
from repro.local.clients import (
    FakeS3Client,
    InMemoryBucketStore,
)


class TestInMemoryBucketStore:
    def test_round_trip(self):
        store = InMemoryBucketStore()
        store.put("k", b"v")
        assert store.get("k") == b"v"
        assert len(store) == 1

    def test_missing_key_raises(self):
        with pytest.raises(ReproError):
            InMemoryBucketStore().get("missing")


class TestFakeS3Client:
    def test_construction_costs_time(self):
        start = time.monotonic()
        FakeS3Client("AK", "SK", construction_seconds=0.03,
                     store=InMemoryBucketStore())
        assert time.monotonic() - start >= 0.03

    def test_requires_credentials(self):
        with pytest.raises(ReproError):
            FakeS3Client("", "SK", construction_seconds=0.0)

    def test_crud_surface(self):
        store = InMemoryBucketStore()
        client = FakeS3Client("AK", "SK", store=store,
                              construction_seconds=0.0)
        client.put_object(Bucket="b", Key="k", Body=b"data")
        assert store.get("b/k") == b"data"
        with pytest.raises(ReproError):
            store.get("b/other")

    def test_clients_share_backing_store(self):
        store = InMemoryBucketStore()
        writer = FakeS3Client("AK", "SK", store=store,
                              construction_seconds=0.0)
        reader = FakeS3Client("AK", "SK", store=store,
                              construction_seconds=0.0)
        writer.put_object(Bucket="b", Key="k", Body=b"shared")
        reader.put_object(Bucket="b", Key="j", Body=b"also")
        assert (store.get("b/k"), store.get("b/j")) == (b"shared", b"also")

