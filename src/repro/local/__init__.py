"""Real in-process FaaSBatch runtime: threads, genuine resource multiplexing."""

from repro.local.clients import (
    DEFAULT_STORE,
    FakeS3Client,
    InMemoryBucketStore,
)
from repro.local.container import (
    Handler,
    InvocationContext,
    LocalContainer,
    LocalInvocation,
)
from repro.local.multiplexer import (
    MultiplexerMetrics,
    ResourceMultiplexer,
    hash_arguments,
)
from repro.local.runtime import LocalPlatform, LocalPlatformConfig

__all__ = [
    "DEFAULT_STORE",
    "FakeS3Client",
    "Handler",
    "InMemoryBucketStore",
    "InvocationContext",
    "LocalContainer",
    "LocalInvocation",
    "LocalPlatform",
    "LocalPlatformConfig",
    "MultiplexerMetrics",
    "ResourceMultiplexer",
    "hash_arguments",
]
