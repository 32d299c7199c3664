#!/usr/bin/env python3
"""The REAL (non-simulated) FaaSBatch runtime on live threads.

Registers an I/O handler that builds an expensive storage client
(Listing 1 of the paper), sends a burst of requests through the
in-process gateway under the FaaSBatch policy and under the Vanilla
policy, and shows — with wall-clock time and live object identity — what
batching + resource multiplexing buys:

* FaaSBatch: the gateway's dispatch window gathers the burst into one
  group, so one container and one client instance serve everyone (each
  latency includes the window's wait);
* Vanilla: every request is its own group on a serial container, so a
  container per invocation and a client per invocation.

Run:  python examples/real_runtime_multiplexing.py
"""

from __future__ import annotations

import asyncio
import time

from repro.gateway import Gateway, GatewayConfig
from repro.local import (
    FakeS3Client,
    InMemoryBucketStore,
    LocalPlatform,
    LocalPlatformConfig,
)

BURST = 40
CONSTRUCTION_SECONDS = 0.02  # scaled-down version of the paper's 66 ms


def build_handler(store: InMemoryBucketStore):
    def io_handler(payload, context):
        client = context.create_resource(
            FakeS3Client, "ACCESS_KEY", "SECRET_KEY",
            store=store, construction_seconds=CONSTRUCTION_SECONDS)
        client.put_object(Bucket="results", Key=f"obj-{payload}",
                          Body=b"intermediate-data")
        return id(client)

    return io_handler


async def run_policy(label: str, gateway_config: GatewayConfig,
                     platform_config: LocalPlatformConfig) -> None:
    store = InMemoryBucketStore()
    platform = LocalPlatform(platform_config)
    platform.register("io", build_handler(store))
    gateway = Gateway(platform, gateway_config)
    try:
        started = time.monotonic()
        responses = await asyncio.gather(*[
            gateway.invoke("io", i) for i in range(BURST)])
        elapsed = time.monotonic() - started
        reuse = platform.multiplexer_reuse_ratio()
    finally:
        await asyncio.get_running_loop().run_in_executor(
            None, platform.shutdown)

    failed = [r for r in responses if not r.ok]
    assert not failed, failed[:3]
    client_ids = {response.body["result"] for response in responses}
    latencies = sorted(response.latency_ms for response in responses)
    p50 = latencies[len(latencies) // 2]
    print(f"\n--- {label} ---")
    print(f"  burst size            : {BURST}")
    print(f"  wall-clock time       : {elapsed * 1000:.1f} ms")
    print(f"  containers created    : {platform.containers_created}")
    print(f"  distinct client objects: {len(client_ids)}")
    print(f"  median latency        : {p50:.1f} ms")
    print(f"  blobs written         : {len(store)}")
    if platform_config.use_multiplexer:
        print(f"  multiplexer reuse     : {reuse * 100:.0f}%")


async def main() -> None:
    print("Sending a burst of I/O requests through two live gateways...")
    await run_policy("FaaSBatch (batch + expand + multiplex)",
                     GatewayConfig(policy="faasbatch", window_seconds=0.05),
                     LocalPlatformConfig(cold_start_seconds=0.002))
    await run_policy("Vanilla (container per invocation, no sharing)",
                     GatewayConfig(policy="vanilla"),
                     LocalPlatformConfig.vanilla())
    print("\nThe FaaSBatch run built ONE client and shared it across the "
          "whole burst;\nVanilla built one per invocation and paid the "
          "construction cost every time.")


if __name__ == "__main__":
    asyncio.run(main())
