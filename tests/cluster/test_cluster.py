"""Tests for the cluster extension: balancers and cluster experiments."""

from __future__ import annotations

import pytest

from repro.baselines import VanillaScheduler
from repro.cluster import (
    FunctionAffinityBalancer,
    HashPartitionBalancer,
    LeastLoadedBalancer,
    RoundRobinBalancer,
    compare_balancers,
    make_balancer,
    run_cluster_experiment,
    stable_hash,
)
from repro.cluster.experiment import ClusterResult
from repro.common.errors import ConfigurationError
from repro.core import FaaSBatchScheduler
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.platformsim.platform import ServerlessPlatform
from repro.sim.machine import Machine
from repro.workload.generator import (
    fib_family_specs,
    fib_function_spec,
    cpu_workload_trace,
    multi_function_trace,
)


def make_workers(env, count):
    workers = []
    for _ in range(count):
        machine = Machine(env)
        workers.append(ServerlessPlatform(env, machine,
                                          DEFAULT_CALIBRATION))
    return workers


class TestBalancers:
    def test_round_robin_cycles(self, env):
        workers = make_workers(env, 3)
        balancer = RoundRobinBalancer(workers)
        picks = [balancer.pick("f") for _ in range(6)]
        assert picks == workers + workers

    def test_least_loaded_prefers_idle(self, env):
        workers = make_workers(env, 2)
        balancer = LeastLoadedBalancer(workers)
        # Simulate load on worker 0 (issued but not completed).
        workers[0].ids.next("inv")
        assert balancer.pick("f") is workers[1]

    def test_affinity_is_sticky_and_deterministic(self, env):
        workers = make_workers(env, 4)
        balancer = FunctionAffinityBalancer(workers)
        homes = {balancer.pick(f"fn-{i}") for i in range(20)}
        assert len(homes) > 1  # functions spread across workers
        for i in range(20):
            assert balancer.pick(f"fn-{i}") is balancer.pick(f"fn-{i}")

    def test_affinity_spills_when_home_overloaded(self, env):
        workers = make_workers(env, 2)
        balancer = FunctionAffinityBalancer(workers, spill_threshold=1)
        home = balancer.home_of("hot")
        home.ids.next("inv")  # one in-flight puts it at the threshold
        other = next(w for w in workers if w is not home)
        assert balancer.pick("hot") is other
        assert balancer.spills == 1

    def test_stable_hash_is_stable(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")

    def test_make_balancer_unknown_rejected(self, env):
        with pytest.raises(ConfigurationError):
            make_balancer("magic", make_workers(env, 1))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobinBalancer([])

    def test_invalid_spill_threshold_rejected(self, env):
        with pytest.raises(ConfigurationError):
            FunctionAffinityBalancer(make_workers(env, 1),
                                     spill_threshold=0)

    def test_least_loaded_ties_resolve_to_lowest_index(self, env):
        """Regression: ties once keyed on ``id(worker) % 97`` — memory
        addresses — which reshuffled routing between identically-seeded
        runs.  Equal load must always resolve to the lowest index."""
        workers = make_workers(env, 4)
        balancer = LeastLoadedBalancer(workers)
        assert balancer.pick("f") is workers[0]
        workers[0].ids.next("inv")
        assert balancer.pick("f") is workers[1]
        workers[1].ids.next("inv")
        # workers 2 and 3 now tie at zero load: lowest index wins.
        assert all(balancer.pick("f") is workers[2] for _ in range(5))

    def test_affinity_spill_uses_lowest_index_tie_break(self, env):
        workers = make_workers(env, 4)
        balancer = FunctionAffinityBalancer(workers, spill_threshold=1)
        home = balancer.home_of("hot")
        home.ids.next("inv")
        expected = next(w for w in workers if w is not home)
        assert all(balancer.pick("hot") is expected for _ in range(5))

    def test_hash_partition_is_load_blind(self, env):
        workers = make_workers(env, 4)
        balancer = HashPartitionBalancer(workers)
        before = [balancer.pick(f"fn-{i}") for i in range(12)]
        for worker in workers:  # pile arbitrary load everywhere
            worker.ids.next("inv")
        after = [balancer.pick(f"fn-{i}") for i in range(12)]
        assert before == after
        for i in range(12):
            assert before[i] is workers[stable_hash(f"fn-{i}") % 4]


class TestScaleFeatures:
    def test_load_imbalance_zero_when_all_idle(self):
        """Regression: an all-idle cluster used to divide by zero."""
        result = ClusterResult(
            balancer_name="round-robin", workers=2, invocations=[],
            per_worker_invocations=[0, 0], per_worker_containers=[0, 0],
            per_worker_memory_mb=[0.0, 0.0], completion_ms=0.0)
        assert result.load_imbalance() == 0.0
        empty = ClusterResult(
            balancer_name="round-robin", workers=0, invocations=[],
            per_worker_invocations=[], per_worker_containers=[],
            per_worker_memory_mb=[], completion_ms=0.0)
        assert empty.load_imbalance() == 0.0

    def test_retain_invocations_false_routes_through_sink(self):
        trace = multi_function_trace(total=80, functions=2)
        result = run_cluster_experiment(
            FaaSBatchScheduler, trace, fib_family_specs(2), workers=2,
            retain_invocations=False)
        assert result.invocations == []
        assert result.sink is not None
        assert result.sink.completed == 80
        assert sum(result.per_worker_invocations) == 80
        assert result.latency_stats().count == 80

    def test_sink_matches_materialized_latency(self):
        trace = multi_function_trace(total=60, functions=2)
        result = run_cluster_experiment(
            FaaSBatchScheduler, trace, fib_family_specs(2), workers=2)
        materialized = sorted(i.end_to_end_ms for i in result.invocations)
        assert result.sink is not None
        assert result.sink.channel(result.sink.E2E).reservoir.values() \
            == materialized


class TestClusterExperiment:
    def test_all_invocations_complete(self):
        trace = multi_function_trace(total=120, functions=4)
        result = run_cluster_experiment(
            FaaSBatchScheduler, trace, fib_family_specs(4), workers=2)
        assert len(result.invocations) == 120
        assert sum(result.per_worker_invocations) == 120
        assert result.workers == 2

    def test_single_worker_cluster_matches_scale(self):
        trace = cpu_workload_trace(total=60)
        result = run_cluster_experiment(
            VanillaScheduler, trace, [fib_function_spec()], workers=1,
            balancer="round-robin")
        assert result.per_worker_invocations == [60]
        assert result.load_imbalance() == pytest.approx(1.0)

    def test_invalid_worker_count_rejected(self):
        trace = cpu_workload_trace(total=10)
        with pytest.raises(ConfigurationError):
            run_cluster_experiment(VanillaScheduler, trace,
                                   [fib_function_spec()], workers=0)

    def test_affinity_beats_round_robin_on_containers(self):
        """The cluster-level thesis: scattering a function's burst across
        workers shrinks FaaSBatch's groups; affinity keeps them whole."""
        trace = multi_function_trace(total=200, functions=4)
        specs = fib_family_specs(4)
        results = compare_balancers(
            FaaSBatchScheduler, trace, specs, workers=4,
            balancers=("round-robin", "function-affinity"))
        affinity = results["function-affinity"]
        scattered = results["round-robin"]
        assert affinity.total_containers <= scattered.total_containers
        assert len(affinity.invocations) == len(scattered.invocations)

    def test_summary_row_shape(self):
        trace = cpu_workload_trace(total=40)
        result = run_cluster_experiment(
            FaaSBatchScheduler, trace, [fib_function_spec()], workers=2)
        row = result.summary_row()
        assert len(row) == len(result.SUMMARY_HEADERS)
