"""Tests for the cell harness: specs, policy wiring, full cell runs."""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import ConfigurationError
from repro.gateway import (
    CellSpec,
    LoadgenConfig,
    build_stack,
    platform_config_for,
    run_cell,
)

SMALL_LOAD = LoadgenConfig(rps=100.0, duration_seconds=0.3, seed=13,
                           mix={"echo": 1.0})


class TestCellSpec:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            CellSpec(label="x", policy="magic", load=SMALL_LOAD)

    def test_rejects_unknown_transport(self):
        with pytest.raises(ConfigurationError):
            CellSpec(label="x", policy="vanilla", load=SMALL_LOAD,
                     transport="grpc")

    def test_vanilla_platform_is_serial_without_multiplexer(self):
        spec = CellSpec(label="v", policy="vanilla", load=SMALL_LOAD)
        config = platform_config_for(spec)
        assert config.container_concurrency == 1
        assert not config.use_multiplexer

    def test_faasbatch_platform_keeps_multiplexer(self):
        spec = CellSpec(label="f", policy="faasbatch", load=SMALL_LOAD)
        config = platform_config_for(spec)
        assert config.container_concurrency is None
        assert config.use_multiplexer

    def test_adaptive_stack_enables_degradation(self):
        async def main():
            spec = CellSpec(label="a", policy="adaptive", load=SMALL_LOAD)
            platform, gateway = build_stack(spec)
            try:
                return (gateway.config.policy,
                        gateway.config.degradation.enabled)
            finally:
                await asyncio.get_event_loop().run_in_executor(
                    None, platform.shutdown)

        policy, enabled = asyncio.run(main())
        assert policy == "faasbatch"
        assert enabled



class TestRunCell:
    def test_http_transport_cell(self):
        spec = CellSpec(label="h", policy="faasbatch", load=SMALL_LOAD,
                        transport="http", window_seconds=0.005,
                        request_timeout_seconds=None)
        result = asyncio.run(run_cell(spec))
        cell = result.cell()
        assert cell["transport"] == "http"
        assert cell["requests"] > 0
        assert cell["goodput_ratio"] == 1.0

    def test_phased_cell_uses_phase_schedule(self):
        phase = LoadgenConfig(rps=100.0, duration_seconds=0.2, seed=13,
                              mix={"echo": 1.0})
        spec = CellSpec(label="p", policy="faasbatch", load=SMALL_LOAD,
                        phases=(phase, phase),
                        window_seconds=0.005,
                        request_timeout_seconds=None)
        result = asyncio.run(run_cell(spec))
        # Two 0.2 s phases -> arrivals span past the single-phase horizon.
        assert max(s.offset_seconds for s in result.samples) > 0.2
        assert result.cell()["goodput_ratio"] == 1.0
