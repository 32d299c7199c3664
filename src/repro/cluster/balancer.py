"""Cluster load balancing policies.

The paper scopes itself to a single worker ("This study focuses on the
performance of FaaSBatch running on a single machine, rather than the
efficiency of clustered servers", §IV); this package extends the
reproduction to a small cluster to study how routing interacts with
FaaSBatch's batching.

Three routing policies:

* :class:`RoundRobinBalancer` — classic even spreading.  *Hostile* to
  FaaSBatch: concurrent invocations of one function land on different
  workers, so each worker forms smaller groups.
* :class:`LeastLoadedBalancer` — route to the worker with the fewest
  in-flight invocations.
* :class:`FunctionAffinityBalancer` — hash the function id to a home
  worker, spilling to the least-loaded worker above a load threshold.
  *Friendly* to FaaSBatch: a function's burst stays together, maximising
  group sizes and multiplexer reuse.
* :class:`HashPartitionBalancer` — pure hash routing, never spills.  The
  only *load-independent* policy: where a request lands depends on the
  function id alone, so a run can be partitioned across shard processes
  (each owning a worker subset) and replayed with per-worker results
  identical to the single-process run (see ``repro.cluster.sharded``).

All policies tie-break deterministically: equal-load candidates resolve
to the lowest worker index, never to memory addresses (an earlier
version keyed ties on ``id(worker) % 97``, which reshuffled routing from
run to run under identical seeds).
"""

from __future__ import annotations

import abc
import hashlib
from typing import List, Sequence

from repro.common.errors import ConfigurationError
from repro.platformsim.platform import ServerlessPlatform


def stable_hash(text: str) -> int:
    """Deterministic cross-run string hash (Python's ``hash`` is salted)."""
    return int.from_bytes(hashlib.md5(text.encode()).digest()[:8], "big")


class Balancer(abc.ABC):
    """Chooses a worker platform for each arriving request."""

    name: str = "abstract"

    def __init__(self, workers: Sequence[ServerlessPlatform]) -> None:
        if not workers:
            raise ConfigurationError("a cluster needs at least one worker")
        self.workers: List[ServerlessPlatform] = list(workers)

    @abc.abstractmethod
    def pick(self, function_id: str) -> ServerlessPlatform:
        """Return the worker that should serve the next request."""

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def load_of(worker: ServerlessPlatform) -> int:
        """In-flight invocations on *worker* (dispatched, not completed)."""
        issued = worker.ids.count("inv")
        return issued - worker.completed_count

    def least_loaded(self) -> ServerlessPlatform:
        """Lowest-load worker; ties go to the lowest index (deterministic)."""
        index = min(range(len(self.workers)),
                    key=lambda i: (self.load_of(self.workers[i]), i))
        return self.workers[index]


class RoundRobinBalancer(Balancer):
    """Cycle through workers regardless of function or load."""

    name = "round-robin"

    def __init__(self, workers: Sequence[ServerlessPlatform]) -> None:
        super().__init__(workers)
        self._next = 0

    def pick(self, function_id: str) -> ServerlessPlatform:
        worker = self.workers[self._next % len(self.workers)]
        self._next += 1
        return worker


class LeastLoadedBalancer(Balancer):
    """Route to the worker with the fewest in-flight invocations."""

    name = "least-loaded"

    def pick(self, function_id: str) -> ServerlessPlatform:
        return self.least_loaded()


class FunctionAffinityBalancer(Balancer):
    """Keep each function on its home worker unless it is overloaded.

    ``spill_threshold`` is the in-flight invocation count above which a
    request spills to the least-loaded worker instead of its home.
    """

    name = "function-affinity"

    def __init__(self, workers: Sequence[ServerlessPlatform],
                 spill_threshold: int = 1_000) -> None:
        super().__init__(workers)
        if spill_threshold < 1:
            raise ConfigurationError(
                f"spill_threshold must be >= 1, got {spill_threshold}")
        self.spill_threshold = spill_threshold
        self.spills = 0

    def home_of(self, function_id: str) -> ServerlessPlatform:
        return self.workers[stable_hash(function_id) % len(self.workers)]

    def pick(self, function_id: str) -> ServerlessPlatform:
        home = self.home_of(function_id)
        if self.load_of(home) < self.spill_threshold:
            return home
        self.spills += 1
        # Spills use the same lowest-index tie-break as least-loaded; a
        # bare min() over platform objects would already be stable, but
        # routing through the helper keeps one definition of "least
        # loaded" across policies.
        return self.least_loaded()


class HashPartitionBalancer(Balancer):
    """Route purely by function-id hash; never consult load, never spill.

    Deliberately load-blind: routing is a pure function of the id and the
    worker count, which makes runs *partitionable* — worker ``w`` sees the
    same request sequence whether the other workers live in this process
    or in another shard.  The sharded cluster runner relies on this.
    """

    name = "hash-partition"

    def pick(self, function_id: str) -> ServerlessPlatform:
        return self.workers[stable_hash(function_id) % len(self.workers)]


BALANCERS = {
    RoundRobinBalancer.name: RoundRobinBalancer,
    LeastLoadedBalancer.name: LeastLoadedBalancer,
    FunctionAffinityBalancer.name: FunctionAffinityBalancer,
    HashPartitionBalancer.name: HashPartitionBalancer,
}


def make_balancer(name: str,
                  workers: Sequence[ServerlessPlatform]) -> Balancer:
    """Construct a balancer by policy name."""
    try:
        balancer_type = BALANCERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown balancer {name!r}; choose from {sorted(BALANCERS)}"
        ) from None
    return balancer_type(workers)
