"""Hiku (pull-based) and DataDriven (SPT) baselines end to end."""

import pytest

from repro.baselines import DataDrivenScheduler, HikuScheduler
from repro.common.errors import ConfigurationError
from repro.platformsim import run_experiment
from repro.workload import (
    cpu_workload_trace,
    fib_function_spec,
    io_function_spec,
    io_workload_trace,
)


@pytest.fixture(scope="module")
def io_setup():
    return io_workload_trace(total=120), [io_function_spec()]


class TestHiku:
    def test_serves_everything(self, io_setup):
        trace, specs = io_setup
        result = run_experiment(HikuScheduler(), trace, specs,
                                workload_label="io")
        assert len(result.successful_invocations()) == len(trace)
        assert result.goodput() == 1.0

    def test_deterministic(self, io_setup):
        trace, specs = io_setup
        first = run_experiment(HikuScheduler(), trace, specs,
                               workload_label="io")
        second = run_experiment(HikuScheduler(), trace, specs,
                                workload_label="io")
        assert first.completion_ms == second.completion_ms
        assert first.latency_stats().percentile(98) == \
            second.latency_stats().percentile(98)

    def test_puller_count_bounds_concurrency(self, io_setup):
        trace, specs = io_setup
        narrow = run_experiment(HikuScheduler(pullers=1), trace, specs,
                                workload_label="io")
        wide = run_experiment(HikuScheduler(pullers=8), trace, specs,
                              workload_label="io")
        # One puller serialises the run; more pullers finish sooner.
        assert narrow.completion_ms > wide.completion_ms
        assert narrow.provisioned_containers <= wide.provisioned_containers

    def test_bad_puller_count_rejected(self):
        with pytest.raises(ConfigurationError):
            HikuScheduler(pullers=0)


class TestDataDriven:
    def test_serves_everything(self, io_setup):
        trace, specs = io_setup
        result = run_experiment(DataDrivenScheduler(), trace, specs,
                                workload_label="io")
        assert len(result.successful_invocations()) == len(trace)
        assert result.goodput() == 1.0

    def test_deterministic(self, io_setup):
        trace, specs = io_setup
        first = run_experiment(DataDrivenScheduler(), trace, specs,
                               workload_label="io")
        second = run_experiment(DataDrivenScheduler(), trace, specs,
                                workload_label="io")
        assert first.completion_ms == second.completion_ms

    def test_learns_runtime_estimates(self, io_setup):
        trace, specs = io_setup
        scheduler = DataDrivenScheduler()
        assert scheduler.estimate_ms(specs[0].function_id) == \
            scheduler.default_estimate_ms
        result = run_experiment(scheduler, trace, specs,
                                workload_label="io")
        learned = scheduler.estimate_ms(specs[0].function_id)
        assert learned != scheduler.default_estimate_ms
        executed = [inv.latency.execution_ms
                    for inv in result.successful_invocations()]
        assert min(executed) <= learned <= max(executed)

    def test_cpu_workload(self):
        trace = cpu_workload_trace(total=80)
        result = run_experiment(DataDrivenScheduler(), trace,
                                [fib_function_spec()],
                                workload_label="cpu")
        assert len(result.successful_invocations()) == len(trace)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DataDrivenScheduler(executors=0)
        with pytest.raises(ConfigurationError):
            DataDrivenScheduler(default_estimate_ms=0.0)
