"""Retry grouping: failed attempts land in a strictly later window.

A group's failed members retry together, as one new group with a fresh
window sequence number, so the tier that admitted the requests keeps
owning their grouping: a group of one retries alone, members of one
FaaSBatch group retry together, and retries from different groups never
merge.  These tests pin that behaviour down via ``attempt_history``
under real concurrency.
"""

from __future__ import annotations

import asyncio
import collections
import threading

from repro.gateway import Gateway, GatewayConfig
from repro.local.runtime import LocalPlatform, LocalPlatformConfig
from tests.local.helpers import submit


class FlakyOnce:
    """Fails each invocation's first attempt, succeeds afterwards."""

    def __init__(self):
        self._seen = set()
        self._lock = threading.Lock()

    def __call__(self, payload, context):
        with self._lock:
            first = payload not in self._seen
            self._seen.add(payload)
        if first:
            raise RuntimeError(f"flaky first attempt for {payload}")
        return payload


class TestRetryRebatching:
    def run_flaky_burst(self, total=24, **config_kwargs):
        defaults = dict(cold_start_seconds=0.0, max_attempts=3)
        defaults.update(config_kwargs)
        platform = LocalPlatform(LocalPlatformConfig(**defaults))
        platform.register("flaky", FlakyOnce())
        try:
            invocations, futures = submit(
                platform, "flaky", list(range(total // 2)))
            _, others = submit(
                platform, "flaky", list(range(total // 2, total)))
            results = sorted(future.result(timeout=10) for future in futures)
            results += sorted(future.result(timeout=10) for future in others)
            return invocations, results
        finally:
            platform.shutdown()

    def test_all_invocations_recover_via_retry(self):
        _, results = self.run_flaky_burst()
        assert results == sorted(range(24))

    def test_attempt_history_records_each_attempt(self):
        invocations, _ = self.run_flaky_burst()
        for invocation in invocations:
            assert invocation.attempts == 2
            assert len(invocation.attempt_history) == 2
            first, second = invocation.attempt_history
            assert first["attempt"] == 1
            assert first["error"] == "RuntimeError"
            assert second["attempt"] == 2
            assert second["error"] is None

    def test_retries_land_in_strictly_later_windows(self):
        invocations, _ = self.run_flaky_burst()
        for invocation in invocations:
            sequences = [record["window_seq"]
                         for record in invocation.attempt_history]
            assert all(isinstance(seq, int) for seq in sequences)
            assert sequences == sorted(sequences)
            assert len(set(sequences)) == len(sequences), \
                "a retry reused its failed attempt's dispatch window"

    def test_concurrent_retries_share_later_windows(self):
        """A group's failed members retry together, not one-by-one."""
        invocations, _ = self.run_flaky_burst(total=32)
        retry_windows = {invocation.attempt_history[1]["window_seq"]
                         for invocation in invocations}
        assert len(retry_windows) == 1


class TestRetryKeepsTheAdmittedGrouping:
    def test_failed_members_retry_as_one_group(self):
        """Only the odd members fail: exactly they rerun, together."""
        platform = LocalPlatform(LocalPlatformConfig(
            cold_start_seconds=0.0, max_attempts=2))
        flaky = FlakyOnce()
        platform.register(
            "odd", lambda payload, context:
            flaky(payload, context) if payload % 2 else payload)
        try:
            group, futures = submit(platform, "odd", list(range(10)))
            assert [future.result(timeout=10) for future in futures] \
                == list(range(10))
        finally:
            platform.shutdown()
        (first_window,) = {inv.attempt_history[0]["window_seq"]
                           for inv in group}
        odd = [inv for inv in group if inv.payload % 2]
        assert all(inv.attempts == 1 for inv in group if inv not in odd)
        assert all(inv.attempts == 2 for inv in odd)
        (retry_window,) = {inv.window_seq for inv in odd}
        assert retry_window > first_window
        assert sorted(inv.payload for inv in platform.completed
                      if inv.window_seq == retry_window) == [1, 3, 5, 7, 9]

    def test_vanilla_gateway_retries_stay_alone(self):
        """Requests the gateway dispatched alone retry alone: the
        platform adds no window of its own that could merge them."""
        total = 8

        async def main():
            platform = LocalPlatform(LocalPlatformConfig(max_attempts=2))
            platform.register("flaky", FlakyOnce())
            gateway = Gateway(platform, GatewayConfig(policy="vanilla",
                                                      window_seconds=0.0))
            try:
                responses = await asyncio.gather(*[
                    gateway.invoke("flaky", n) for n in range(total)])
            finally:
                await asyncio.get_running_loop().run_in_executor(
                    None, platform.shutdown)
            return platform, responses

        platform, responses = asyncio.run(main())
        assert sorted(r.body["result"] for r in responses) \
            == list(range(total))
        assert len(platform.completed) == total
        assert all(inv.attempts == 2 for inv in platform.completed)
        retry_windows = collections.Counter(
            inv.window_seq for inv in platform.completed)
        assert list(retry_windows.values()) == [1] * total, retry_windows
