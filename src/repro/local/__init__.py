"""Real in-process FaaSBatch runtime: threads, genuine resource multiplexing."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.local.clients": (
        "DEFAULT_STORE", "FakeS3Client", "InMemoryBucketStore"),
    "repro.local.container": (
        "Handler", "InvocationContext", "LocalContainer", "LocalInvocation"),
    "repro.local.multiplexer": (
        "MultiplexerMetrics", "ResourceMultiplexer", "hash_arguments"),
    "repro.local.runtime": ("LocalPlatform", "LocalPlatformConfig"),
})

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
