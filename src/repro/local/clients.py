"""Fake cloud-storage clients with calibrated construction costs.

Stand-ins for the boto3 client of Listing 1: constructing one burns real
wall-clock time (configurable, default a scaled-down version of the
paper's 66 ms) and allocates a payload buffer standing in for the client's
resident memory, so the multiplexer's effect is *observable* in the
examples and tests — in time and in object identity.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.common.errors import ReproError

#: Scaled-down default construction cost so tests stay fast (the paper's
#: measured cost at concurrency 1 is 66 ms).
DEFAULT_CONSTRUCTION_SECONDS = 0.01


class InMemoryBucketStore:
    """Shared backing store for the fake clients (one per 'cloud')."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._objects: Dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            self._objects[key] = data

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)


#: Default shared store used when a client is built without one.
DEFAULT_STORE = InMemoryBucketStore()


class FakeS3Client:
    """A boto3-like client whose construction is deliberately expensive."""

    def __init__(self, access_key: str, secret_key: str,
                 session_token: str = "",
                 store: Optional[InMemoryBucketStore] = None,
                 construction_seconds: float = DEFAULT_CONSTRUCTION_SECONDS,
                 ) -> None:
        if not access_key or not secret_key:
            raise ReproError("access_key and secret_key are required")
        # The expensive part: TLS handshakes, endpoint discovery, botocore
        # model loading... modelled as a sleep plus a buffer allocation.
        time.sleep(construction_seconds)
        self._payload = bytearray(256 * 1024)  # stands in for client RAM
        self.access_key = access_key
        self._store = store if store is not None else DEFAULT_STORE
        self.created_at = time.monotonic()

    # -- the call Listing 1 makes ----------------------------------------------

    def put_object(self, Bucket: str, Key: str, Body: bytes) -> None:  # noqa: N803
        self._store.put(f"{Bucket}/{Key}", Body)

