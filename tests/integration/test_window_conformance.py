"""Sim ↔ live conformance: both tiers batch the same requests together.

One seeded arrival trace (function and instant) runs twice:

* through the simulator's FaaSBatch path — :class:`FaaSBatchScheduler` on a
  :class:`ServerlessPlatform`, its Invoke Mapper driving the dispatch
  window on the kernel clock (milliseconds);
* through :meth:`Gateway.submit` — the live window on a virtual-time event
  loop (seconds), with a recording platform in place of the threads.

Both must produce the same groups: function, members, and the window's open
and close instants.  Both tiers run one
:class:`~repro.common.window.DispatchWindow`, so they do.

One difference remains, and this test does not cover it: **retries**.  A
live group retries its failed members as one group of their own, with a
fresh ``window_seq``, and never through the gateway's window again.  The
simulator puts a retried invocation back on the request queue
(``ServerlessPlatform.requeue``), so the mapper batches it with whatever
else arrives in its window.  The trace here has no failures.

The multiplexer half replays one overlapping sequence of creation requests
through the simulator's and the live multiplexer and expects the same
hit, in-flight, miss and failed-build counts from both.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Tuple

import pytest

from repro.common.multiplexer import LookupOutcome, ResourceMultiplexer
from repro.core.config import FaaSBatchConfig
from repro.core.multiplexer import SimResourceMultiplexer
from repro.core.scheduler import FaaSBatchScheduler
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile
from repro.platformsim.experiment import run_experiment
from repro.sim.kernel import Environment
from repro.workload.trace import Trace, TraceRecord
from tests.gateway.virtual_loop import replay, virtual_gateway

FUNCTIONS = ("io", "echo", "fib")
MIX = (0.6, 0.3, 0.1)

#: One window's group: (function, member trace indices, open, close), with
#: the instants in milliseconds.
Group = Tuple[str, Tuple[int, ...], float, float]


def arrival_trace(seed: int = 13, rps: float = 400.0,
                  seconds: float = 1.5) -> List[Tuple[float, str]]:
    """Poisson arrivals: ``(instant_ms, function)`` in arrival order."""
    rng = random.Random(seed)
    arrivals, now = [], 0.0
    while True:
        now += rng.expovariate(rps) * 1000.0
        if now > seconds * 1000.0:
            return arrivals
        arrivals.append((now, rng.choices(FUNCTIONS, MIX)[0]))


class RecordingFaaSBatch(FaaSBatchScheduler):
    """FaaSBatch that notes every group its mapper hands the producer."""

    def __init__(self, window_ms: float) -> None:
        super().__init__(FaaSBatchConfig(window_ms=window_ms))
        self.groups: List[Group] = []

    def _run_group(self, platform, group):
        self.groups.append((group.function_id,
                            tuple(inv.payload for inv in group.invocations),
                            group.window_start_ms, group.window_end_ms))
        yield from super()._run_group(platform, group)


def sim_groups(arrivals, window_ms: float) -> List[Group]:
    specs = [FunctionSpec(function_id=name, kind=FunctionKind.CPU,
                          profile_factory=lambda _payload: cpu_profile(1.0))
             for name in FUNCTIONS]
    trace = Trace([TraceRecord(at, function, payload=index)
                   for index, (at, function) in enumerate(arrivals)])
    scheduler = RecordingFaaSBatch(window_ms)
    run_experiment(scheduler, trace, specs)
    return scheduler.groups


def live_groups(arrivals, window_ms: float) -> List[Group]:
    """The gateway's groups; a window's open instant is its first member's
    arrival, its close instant the dispatch."""
    with virtual_gateway(window_ms / 1000.0, functions=FUNCTIONS) as (
            loop, gateway, platform):
        responses = replay(loop, gateway,
                           [(at / 1000.0, function, index) for index, (
                               at, function) in enumerate(arrivals)],
                           until=arrivals[-1][0] / 1000.0 + 1.0)
    assert [response.status for response in responses] == \
        [200] * len(arrivals)
    opened: Dict[float, float] = {}
    for group in platform.dispatched:
        first = arrivals[group.payloads[0]][0]
        opened[group.at] = min(opened.get(group.at, first), first)
    return [(group.function, tuple(group.payloads), opened[group.at],
             group.at * 1000.0) for group in platform.dispatched]


@pytest.mark.parametrize("window_ms", [0.0, 20.0, 200.0])
def test_both_tiers_batch_the_same_requests_together(window_ms):
    arrivals = arrival_trace()
    sim, live = sim_groups(arrivals, window_ms), live_groups(arrivals,
                                                              window_ms)
    assert [group[:2] for group in live] == [group[:2] for group in sim]
    for (_, _, sim_open, sim_close), (_, _, live_open, live_close) in zip(
            sim, live):
        assert live_open == pytest.approx(sim_open, rel=1e-12)
        assert live_close == pytest.approx(sim_close, rel=1e-12)
    if window_ms:
        # The windows really batched: fewer groups than arrivals, and
        # groups of different functions shared a window.
        assert len(sim) < len(arrivals)
        assert len({group[2] for group in sim}) < len(sim)
    else:
        assert len(sim) == len(arrivals)


#: One overlapping sequence of creation requests: ``(op, factory, args)``.
#: ``request`` looks up (a miss starts a build that stays in flight until
#: its ``finish`` or ``fail``).
CREATIONS = (
    ("request", "s3", "A"),    # miss: A's build starts
    ("request", "s3", "A"),    # in flight: waits on A's build
    ("request", "s3", "B"),    # miss: B's build starts
    ("finish", "s3", "A"),
    ("request", "s3", "A"),    # hit
    ("fail", "s3", "B"),       # evicted
    ("request", "s3", "B"),    # miss again: the retry builds
    ("request", "blob", "A"),  # another factory: miss
    ("finish", "s3", "B"),
    ("finish", "blob", "A"),
    ("request", "s3", "B"),    # hit
    ("request", "blob", "A"),  # hit
)
EXPECTED = {"hits": 3, "in_flight_waits": 1, "misses": 4, "failed_builds": 1}


def counts(stats) -> Dict[str, int]:
    return {name: getattr(stats, name) for name in EXPECTED}


def test_sim_multiplexer_counts():
    multiplexer = SimResourceMultiplexer(Environment())
    building = {}
    for op, factory, args in CREATIONS:
        if op == "request":
            lookup = multiplexer.lookup(factory, args)
            if lookup.outcome is LookupOutcome.MISS:
                building[(factory, args)] = lookup.key
        elif op == "finish":
            multiplexer.commit(building.pop((factory, args)), object())
        else:
            multiplexer.abort(building.pop((factory, args)),
                              RuntimeError("credentials rejected"))
    assert counts(multiplexer.stats) == EXPECTED


def test_live_multiplexer_counts():
    multiplexer = ResourceMultiplexer()
    #: (factory, args) -> [entered, verdict-ready, verdict]
    builds: Dict[Tuple[str, str], list] = {}
    lock = threading.Lock()

    def factory_named(name):
        def build(args):
            with lock:
                gate = builds.setdefault((name, args), [
                    threading.Event(), threading.Event(), None])
            gate[0].set()
            gate[1].wait(5.0)
            if gate[2] == "fail":
                raise RuntimeError("credentials rejected")
            return object()
        build.__qualname__ = name
        return build

    factories = {name: factory_named(name) for name in ("s3", "blob")}
    #: (factory, args) -> the threads that requested it so far
    threads: Dict[Tuple[str, str], List[threading.Thread]] = {}

    def request(factory, args):
        try:
            multiplexer.get_or_create(factories[factory], args)
        except RuntimeError:
            pass  # a failed build reaches its waiters too

    def wait_until(predicate):
        deadline = time.monotonic() + 5.0
        while not predicate():
            assert time.monotonic() < deadline
            time.sleep(0.001)

    for op, factory, args in CREATIONS:
        if op == "request":
            lookups = multiplexer.stats.lookups
            thread = threading.Thread(target=request, args=(factory, args))
            thread.start()
            threads.setdefault((factory, args), []).append(thread)
            wait_until(lambda: multiplexer.stats.lookups > lookups)
            continue
        wait_until(lambda: (factory, args) in builds
                   and builds[(factory, args)][0].is_set())
        with lock:
            gate = builds.pop((factory, args))
        gate[2] = op
        gate[1].set()
        for thread in threads.pop((factory, args)):
            thread.join(5.0)
            assert not thread.is_alive()
    assert counts(multiplexer.stats) == EXPECTED
