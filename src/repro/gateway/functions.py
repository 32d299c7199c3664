"""Demo function set served by the gateway (and driven by the loadgen).

Four handlers spanning the behaviours that matter for batching:

* ``echo`` — near-zero work; measures pure gateway+platform overhead;
* ``sleep`` — fixed wall-clock wait; parallel-friendly (threads overlap);
* ``fib``  — small CPU burn; GIL-bound, so batching cannot help compute;
* ``io``   — builds a storage client via ``context.create_resource`` and
  writes an object.  Client construction costs real wall-clock, so the
  Resource Multiplexer (shared per container) is where FaaSBatch earns
  its p99 win — vanilla mode pays construction on every request.
"""

from __future__ import annotations

from typing import Optional

from repro.local import (
    FakeS3Client,
    InMemoryBucketStore,
    LocalPlatform,
    LocalPlatformConfig,
)
from repro.obs import Observability

#: Default io-handler client construction cost (seconds).  The paper's
#: measured boto3-client construction runs tens of milliseconds — that
#: cost is the whole reason the Resource Multiplexer exists, so the demo
#: keeps it in that range rather than scaling it away.
DEFAULT_CLIENT_COST_SECONDS = 0.025

DEMO_FUNCTIONS = ("echo", "sleep", "fib", "io")


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def make_handlers() -> dict:
    """The demo handler set, closed over one shared bucket store."""
    bucket = InMemoryBucketStore()

    def echo_handler(payload, context):
        return payload

    def sleep_handler(payload, context):
        import time
        ms = float((payload or {}).get("ms", 1.0))
        time.sleep(ms / 1000.0)
        return {"slept_ms": ms}

    def fib_handler(payload, context):
        n = int((payload or {}).get("n", 200))
        return {"n": n, "fib_len": len(str(fib(n)))}

    def io_handler(payload, context):
        key = str((payload or {}).get("key", "object"))
        client = context.create_resource(
            FakeS3Client, "AKDEMO", "SECRET", store=bucket,
            construction_seconds=DEFAULT_CLIENT_COST_SECONDS)
        client.put_object(Bucket="demo", Key=key, Body=b"x" * 64)
        return {"stored": key}

    return {
        "echo": echo_handler,
        "sleep": sleep_handler,
        "fib": fib_handler,
        "io": io_handler,
    }


def demo_platform(config: Optional[LocalPlatformConfig] = None,
                  obs: Optional[Observability] = None) -> LocalPlatform:
    """A LocalPlatform with the demo handler set registered."""
    platform = LocalPlatform(config, obs=obs)
    for name, handler in make_handlers().items():
        platform.register(name, handler)
    return platform
