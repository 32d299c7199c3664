"""Stateful (rule-based) property tests for core data structures.

Hypothesis drives random operation sequences against a model:

* the keep-alive :class:`ContainerPool` against a reference dict model;
* the real :class:`ResourceMultiplexer` against a reference memo table;
* the DES :class:`Store` against a reference FIFO.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.multiplexer import ResourceMultiplexer
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.container import SimContainer
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.pool import ContainerPool
from repro.model.workprofile import cpu_profile
from repro.sim.kernel import Environment
from repro.sim.machine import Machine
from repro.sim.primitives import Store

STATEFUL_SETTINGS = settings(max_examples=25, stateful_step_count=30,
                             deadline=None)


class MultiplexerMachine(RuleBasedStateMachine):
    """The multiplexer must behave exactly like a memo table."""

    def __init__(self):
        super().__init__()
        self.multiplexer = ResourceMultiplexer()
        self.model = {}
        self.build_count = 0
        self.calls = 0

        def factory(k):
            self.build_count += 1
            return ("instance", k, object())

        # One shared factory: the cache key includes the factory's
        # qualified name, so distinct closures would not share entries.
        self.factory = factory

    keys = Bundle("keys")

    @rule(target=keys, key=st.integers(0, 5))
    def new_key(self, key):
        return key

    @rule(key=keys)
    def get_or_create(self, key):
        instance = self.multiplexer.get_or_create(self.factory, key)
        self.calls += 1
        if key in self.model:
            assert instance is self.model[key]
        else:
            self.model[key] = instance

    @invariant()
    def one_build_per_distinct_key(self):
        assert self.build_count == self.multiplexer.stats.misses \
            == len(self.model)

    @invariant()
    def every_repeat_is_a_hit(self):
        assert self.multiplexer.stats.hits == self.calls - len(self.model)


MultiplexerMachine.TestCase.settings = STATEFUL_SETTINGS
TestMultiplexerStateful = MultiplexerMachine.TestCase


class StoreMachine(RuleBasedStateMachine):
    """The DES Store must be an exact FIFO."""

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.store: Store[int] = Store(self.env)
        self.model = []
        self.counter = 0

    @rule()
    def put(self):
        self.store.put(self.counter)
        self.model.append(self.counter)
        self.counter += 1

    @rule()
    def get_via_event(self):
        event = self.store.get()
        if self.model:
            assert event.triggered
            assert event.value == self.model.pop(0)
        else:
            # No item: the getter must wait, then receive the NEXT put.
            self.store.cancel_get(event)

    @rule()
    def drain(self):
        assert self.store.drain() == self.model
        self.model.clear()

    @invariant()
    def length_matches(self):
        assert len(self.store) == len(self.model)


StoreMachine.TestCase.settings = STATEFUL_SETTINGS
TestStoreStateful = StoreMachine.TestCase


class PoolMachine(RuleBasedStateMachine):
    """The keep-alive pool against a reference idle-set model.

    Time never advances inside a step (keep-alive is effectively infinite),
    so expiry never interferes; what is checked is acquire/release/drain
    bookkeeping.
    """

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.machine = Machine(self.env)
        self.pool = ContainerPool(self.env, keep_alive_ms=1e12)
        self.spec = FunctionSpec(
            function_id="f", kind=FunctionKind.CPU,
            profile_factory=lambda p: cpu_profile(1.0))
        self.idle_model = []
        self.sequence = 0

    @rule()
    def provision_and_release(self):
        container = SimContainer(
            env=self.env, machine=self.machine,
            container_id=f"c-{self.sequence}", function=self.spec,
            calibration=DEFAULT_CALIBRATION)
        self.sequence += 1
        self.env.run_process(self.env.process(container.start()))
        self.pool.register_started(container)
        self.pool.release(container)
        self.idle_model.append(container)

    @rule()
    def acquire(self):
        container = self.pool.acquire("f")
        if self.idle_model:
            assert container is self.idle_model.pop()  # LIFO reuse
        else:
            assert container is None

    @rule()
    def drain(self):
        drained = self.pool.drain()
        assert sorted(c.container_id for c in drained) == \
            sorted(c.container_id for c in self.idle_model)
        self.idle_model.clear()

    @invariant()
    def idle_count_matches(self):
        assert self.pool.idle_count("f") == len(self.idle_model)

    @invariant()
    def provisioned_total_is_monotone(self):
        assert self.pool.provisioned_total == self.sequence


PoolMachine.TestCase.settings = STATEFUL_SETTINGS
TestPoolStateful = PoolMachine.TestCase
