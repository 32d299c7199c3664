"""Result totals survive the docker facade forgetting stopped containers.

``SimDockerClient`` keeps only live containers and folds a container's
client and multiplexer counts into running totals when it stops (keep-alive
expiry, a failed cold start) or its crash teardown ends.  Each scenario
below retires containers that built clients or served multiplexer hits,
and the expected values were recorded before the facade forgot anything,
when every container ever started was still listed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import VanillaScheduler
from repro.core import FaaSBatchConfig, FaaSBatchScheduler
from repro.faults import ResiliencePolicy
from repro.faults.plan import ContainerCrashFault, FaultPlan, OomKillFault
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.platformsim import experiment, run_experiment
from repro.platformsim.platform import ServerlessPlatform
from repro.workload.generator import io_function_spec, io_workload_trace

#: A 2 s keep-alive makes containers expire during the 400-invocation run.
SHORT_KEEP_ALIVE = replace(DEFAULT_CALIBRATION, keep_alive_ms=2_000.0)
CRASHES = FaultPlan(crashes=tuple(
    ContainerCrashFault(ordinal=ordinal, after_start_ms=300.0)
    for ordinal in (1, 2, 4)))
OOM_KILLS = FaultPlan(oom_kills=(
    OomKillFault(threshold_mb=120.0, max_kills=4),))
RETRIES = ResiliencePolicy(max_attempts=4)

#: name -> (scheduler factory, fault plan, resilience, expected
#: (provisioned, clients_created, multiplexer hits + waits, misses))
SCENARIOS = {
    "faasbatch-expiry": (FaaSBatchScheduler, None, None, (4, 4, 396, 4)),
    "serial-multiplexer-expiry": (
        lambda: FaaSBatchScheduler(FaaSBatchConfig(inline_parallel=False)),
        None, None, (7, 7, 393, 7)),
    "faasbatch-crashes": (FaaSBatchScheduler, CRASHES, RETRIES,
                          (6, 3, 398, 6)),
    "faasbatch-oom-kills": (FaaSBatchScheduler, OOM_KILLS, RETRIES,
                            (10, 9, 392, 9)),
    "vanilla-crashes": (VanillaScheduler, CRASHES, RETRIES,
                        (317, 400, 0, 0)),
}


@pytest.fixture
def platforms(monkeypatch):
    """Every ServerlessPlatform built while the test runs."""
    built = []
    init = ServerlessPlatform.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ServerlessPlatform, "__init__", recording_init)
    return built


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_totals_count_retired_containers(name, platforms, monkeypatch):
    monkeypatch.setattr(experiment, "DEFAULT_CALIBRATION", SHORT_KEEP_ALIVE)
    make_scheduler, plan, resilience, expected = SCENARIOS[name]
    provisioned, clients, reuses, misses = expected
    result = run_experiment(
        make_scheduler(), io_workload_trace(seed=13, total=400),
        [io_function_spec()], fault_plan=plan, resilience=resilience)
    assert result.failure_count == 0
    assert result.provisioned_containers == provisioned
    assert result.clients_created == clients
    assert result.multiplexer_entries == misses
    (platform,) = platforms
    docker = platform.docker
    assert docker.totals() == (clients, reuses, misses)
    # The folded path ran: some containers were forgotten.
    assert len(docker.containers.list(all=True)) < provisioned
