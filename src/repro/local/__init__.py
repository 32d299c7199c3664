"""Real in-process FaaSBatch runtime: threads, genuine resource multiplexing."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.local.clients": (
        "DEFAULT_STORE", "FakeS3Client", "InMemoryBucketStore"),
    "repro.local.container": (
        "Handler", "InvocationContext", "LocalContainer", "LocalInvocation"),
    "repro.common.multiplexer": ("ResourceMultiplexer",),
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
    "ResourceMultiplexer",
]
