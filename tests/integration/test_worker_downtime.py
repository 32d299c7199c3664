"""Reproduce §IV's "worker VM downtime" anecdote.

"During the evaluation of I/O functions, we found that such a high function
concurrency causes the accumulation of tasks, which in turn leads to worker
VM downtime. Thus, to evaluate the I/O functions, we make use of the first
400 function invocations."  (§IV, Benchmarks.)

In the model, the analogue of downtime is exhausting the worker's physical
memory: hundreds of concurrent containers, each with a runtime footprint
and a 15 MB client, accumulate because execution stretches under
contention.  On a memory-constrained worker the baselines blow past
capacity (strict accounting raises :class:`CapacityExceeded`) while
FaaSBatch — one container, one client — sails through untouched.
"""

from __future__ import annotations

import pytest

from repro.baselines import VanillaScheduler
from repro.common.errors import CapacityExceeded
from repro.core import FaaSBatchScheduler
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.platformsim import experiment, run_experiment
from repro.workload import io_function_spec, io_workload_trace
from tests.traces import peak_memory_mb

#: A worker small enough that Vanilla's container accumulation overruns it
#: under the full burst, the way the paper's 64 GB worker did at 800.
SMALL_WORKER = DEFAULT_CALIBRATION.with_overrides(worker_memory_gb=8.0)
FULL_BURST = 400


@pytest.fixture(autouse=True)
def small_worker(monkeypatch):
    """Every run below simulates the small worker."""
    monkeypatch.setattr(experiment, "DEFAULT_CALIBRATION", SMALL_WORKER)


class TestWorkerDowntime:
    def test_vanilla_overruns_a_constrained_worker(self):
        trace = io_workload_trace(total=FULL_BURST)
        with pytest.raises(CapacityExceeded):
            run_experiment(VanillaScheduler(), trace, [io_function_spec()])

    def test_faasbatch_survives_the_same_burst(self):
        trace = io_workload_trace(total=FULL_BURST)
        result = run_experiment(FaaSBatchScheduler(), trace,
                                [io_function_spec()])
        assert len(result.invocations) == FULL_BURST
        assert result.failure_count == 0
        assert peak_memory_mb(result) < 8.0 * 1024.0

    def test_nonstrict_accounting_records_the_overcommit(self):
        """With strict accounting off (the default machine is strict), the
        same run completes but the recorded peak shows the overcommit the
        paper's worker could not survive."""
        trace = io_workload_trace(total=FULL_BURST)
        result = run_experiment(VanillaScheduler(), trace,
                                [io_function_spec()],
                                strict_memory=False)
        assert peak_memory_mb(result) > 8.0 * 1024.0
