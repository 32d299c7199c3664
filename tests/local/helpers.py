"""Blocking shorthands over ``LocalPlatform.submit_group``."""

from __future__ import annotations

from concurrent.futures import Future


def _settle(future, invocation):
    if invocation.error is not None:
        future.set_exception(invocation.error)
    else:
        future.set_result(invocation.result)


def submit(platform, name, payloads):
    """Run *payloads* as one group; returns ``(invocations, futures)``.

    Each member's future is settled by the group's ``on_resolved`` hook,
    the path the gateway takes, with the member's result or error.
    """
    futures = [Future() for _ in payloads]

    def settle(invocations):
        for invocation in invocations:
            _settle(futures[invocation.position], invocation)

    return platform.submit_group(name, payloads, on_resolved=settle), futures


def watch(invocation):
    """A future for a hand-built *invocation*, settled by its
    ``on_resolved`` hook; call it before the invocation runs."""
    future = Future()
    invocation.on_resolved = lambda _resolved: _settle(future, invocation)
    return future


def call(platform, name, payload=None):
    """Run *payload* as a group of one; returns its future."""
    return submit(platform, name, [payload])[1][0]


def call_group(platform, name, payloads):
    """Run *payloads* as one group; returns one future per member."""
    return submit(platform, name, payloads)[1]
