"""Tests for the worker machine and its 1 Hz sampler."""

from __future__ import annotations

import pytest

from repro.sim.fair_share import FairShareCpu
from repro.sim.machine import CpuDiscipline, Machine, build_cpu
from repro.sim.sfs_cpu import SfsCpu


class TestMachine:
    def test_defaults_match_paper_worker_vm(self, env):
        machine = Machine(env)
        assert machine.cores == 32
        assert machine.memory.capacity_mb == pytest.approx(64.0 * 1024.0)

    def test_sampler_records_at_one_hertz(self, env):
        machine = Machine(env)
        machine.start_sampler(horizon_ms=5_000.0)

        def load():
            yield machine.cpu.submit(3_000.0)

        env.process(load())
        env.run()
        samples = machine.samples()
        times = [s.time_ms for s in samples]
        assert times[:6] == [0.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0]

    def test_sampler_captures_utilization(self, env):
        machine = Machine(env, cores=2)
        machine.start_sampler(horizon_ms=4_000.0)
        machine.cpu.submit(2_000.0)
        machine.cpu.submit(2_000.0)
        env.run()
        busy = [s for s in machine.samples() if s.time_ms < 2_000.0]
        idle = [s for s in machine.samples() if s.time_ms > 2_000.0]
        assert all(s.cpu_utilization == pytest.approx(1.0) for s in busy)
        assert all(s.cpu_utilization == pytest.approx(0.0) for s in idle)

    def test_average_requires_samples(self, env):
        machine = Machine(env)
        machine.cpu.submit(100.0)
        env.run()
        assert machine.samples() == []  # nothing to average until started

    def test_start_sampler_is_idempotent(self, env):
        machine = Machine(env)
        machine.start_sampler(horizon_ms=1_000.0)
        machine.start_sampler(horizon_ms=1_000.0)
        env.run()
        times = [s.time_ms for s in machine.samples()]
        assert times == sorted(set(times))  # no duplicated sample points

    def test_total_cpu_core_ms(self, env):
        machine = Machine(env, cores=4)
        machine.cpu.submit(123.0)
        env.run()
        assert machine.cpu.busy_core_ms() == pytest.approx(123.0)


class TestBuildCpu:
    def test_fair_share_by_default(self, env):
        cpu = build_cpu(env, CpuDiscipline.FAIR_SHARE, cores=4)
        assert isinstance(cpu, FairShareCpu)

    def test_sfs_discipline(self, env):
        cpu = build_cpu(env, CpuDiscipline.SFS, cores=4)
        assert isinstance(cpu, SfsCpu)

    def test_machine_accepts_custom_cpu(self, env):
        cpu = SfsCpu(env, cores=2)
        machine = Machine(env, cores=2, cpu=cpu)
        assert machine.cpu is cpu
