"""Tests for the assembled FaaSBatch scheduler and its config/producer."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import (
    DEFAULT_WINDOW_MS,
    SWEEP_WINDOWS_MS,
    FaaSBatchConfig,
)
from repro.core.producer import InlineParallelProducer
from repro.core.scheduler import FaaSBatchScheduler
from repro.platformsim.experiment import run_experiment
from repro.workload.generator import (
    cpu_workload_trace,
    fib_family_specs,
    fib_function_spec,
    io_function_spec,
    io_workload_trace,
)
from tests.traces import multi_function_trace


class TestConfig:
    def test_defaults_match_paper(self):
        config = FaaSBatchConfig()
        assert config.window_ms == DEFAULT_WINDOW_MS == 200.0
        assert config.inline_parallel
        assert config.multiplex_resources

    def test_sweep_values_match_paper_range(self):
        assert SWEEP_WINDOWS_MS[0] == 10.0   # 0.01 s
        assert SWEEP_WINDOWS_MS[-1] == 500.0  # 0.5 s

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaaSBatchConfig(window_ms=-1.0)

    def test_with_window_preserves_flags(self):
        config = FaaSBatchConfig(inline_parallel=False,
                                 multiplex_resources=False)
        other = config.with_window(500.0)
        assert other.window_ms == 500.0
        assert not other.inline_parallel
        assert not other.multiplex_resources


class TestProducer:
    def test_concurrency_limit_inline(self):
        producer = InlineParallelProducer(inline_parallel=True)
        assert producer.concurrency_limit(None) is None

    def test_concurrency_limit_serial(self):
        producer = InlineParallelProducer(inline_parallel=False)
        assert producer.concurrency_limit(None) == 1


class TestEndToEnd:
    def test_single_function_groups_into_few_containers(self):
        trace = cpu_workload_trace(total=120)
        result = run_experiment(FaaSBatchScheduler(), trace,
                                [fib_function_spec()])
        assert len(result.invocations) == 120
        # Orders of magnitude fewer containers than invocations.
        assert result.provisioned_containers <= 12
        assert all(i.completed_ms is not None for i in result.invocations)

    def test_multi_function_one_container_per_group(self):
        trace = multi_function_trace(total=80, functions=4)
        result = run_experiment(FaaSBatchScheduler(), trace,
                                fib_family_specs(4))
        assert len(result.invocations) == 80
        # At least one container per function, far fewer than invocations.
        assert 4 <= result.provisioned_containers <= 20

    def test_io_workload_multiplexes_clients(self):
        trace = io_workload_trace(total=100)
        result = run_experiment(FaaSBatchScheduler(), trace,
                                [io_function_spec()])
        # One client per container (not per invocation).
        assert result.clients_created == result.provisioned_containers
        assert result.client_memory_footprint_mb() < 1.0

    def test_disabling_multiplexer_builds_per_invocation(self):
        trace = io_workload_trace(total=60)
        scheduler = FaaSBatchScheduler(
            FaaSBatchConfig(multiplex_resources=False))
        result = run_experiment(scheduler, trace, [io_function_spec()])
        assert result.clients_created == 60

    def test_serial_mode_accumulates_queuing(self):
        trace = cpu_workload_trace(total=60)
        parallel = run_experiment(FaaSBatchScheduler(), trace,
                                  [fib_function_spec()])
        serial = run_experiment(
            FaaSBatchScheduler(FaaSBatchConfig(inline_parallel=False)),
            trace, [fib_function_spec()])
        assert parallel.total_queuing_ms() == pytest.approx(0.0)
        assert serial.total_queuing_ms() > 1_000.0

    def test_describe_mentions_ablation_flags(self):
        scheduler = FaaSBatchScheduler(
            FaaSBatchConfig(inline_parallel=False,
                            multiplex_resources=False))
        description = scheduler.describe()
        assert "serial" in description
        assert "no-multiplex" in description
        assert "200" in description
