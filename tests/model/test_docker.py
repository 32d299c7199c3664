"""Tests for the docker-py-shaped facade."""

from __future__ import annotations

import pytest

from repro.common.errors import ContainerNotFound
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.docker import SimDockerClient
from repro.model.function import FunctionKind, FunctionSpec
from repro.model.workprofile import cpu_profile


@pytest.fixture
def client(env, machine):
    return SimDockerClient(env, machine, DEFAULT_CALIBRATION)


def make_spec(function_id="f", cpu_limit=None):
    return FunctionSpec(function_id=function_id, kind=FunctionKind.CPU,
                        profile_factory=lambda p: cpu_profile(10.0),
                        cpu_limit=cpu_limit)


class TestRun:
    def test_run_returns_handle_with_id(self, env, client):
        handle = client.containers.run(make_spec())
        assert handle.id == "container-0"
        assert handle.status == "created"

    def test_started_process_completes_cold_start(self, env, client):
        handle = client.containers.run(make_spec())
        cold_ms = env.run_process(handle.started)
        assert cold_ms > 0
        assert handle.status == "running"

    def test_cpu_limit_creates_capped_group(self, env, client, machine):
        handle = client.containers.run(make_spec(cpu_limit=2.0))
        env.run_process(handle.started)
        group = machine.cpu.group(f"cgroup:{handle.id}")
        assert group.cap == 2.0

    def test_sequential_ids(self, env, client):
        first = client.containers.run(make_spec())
        second = client.containers.run(make_spec())
        assert (first.id, second.id) == ("container-0", "container-1")


class TestListGetStop:
    def test_get_unknown_raises(self, client):
        with pytest.raises(ContainerNotFound):
            client.containers.get("nope")

    def test_list_running_only_by_default(self, env, client):
        handle = client.containers.run(make_spec())
        assert client.containers.list() == []  # still starting
        env.run_process(handle.started)
        assert len(client.containers.list()) == 1
        assert len(client.containers.list(all=True)) == 1

    def test_stop_via_handle(self, env, client):
        handle = client.containers.run(make_spec())
        env.run_process(handle.started)
        client.containers.get(handle.id).stop()
        assert handle.status == "exited"
        assert client.running_count() == 0
