"""FaultPlan: validation, JSON round-trips, and the reference plan."""

from __future__ import annotations

import pytest

from repro.faults.plan import (
    ColdStartFailureFault,
    ContainerCrashFault,
    DispatchErrorFault,
    FaultPlan,
    OomKillFault,
    StragglerFault,
    reference_plan,
)


class TestValidation:
    def test_crash_requires_positive_ordinal(self):
        with pytest.raises(ValueError):
            ContainerCrashFault(ordinal=0, after_start_ms=10.0)

    def test_crash_requires_nonnegative_delay(self):
        with pytest.raises(ValueError):
            ContainerCrashFault(ordinal=1, after_start_ms=-1.0)

    def test_straggler_scale_must_be_a_slowdown(self):
        with pytest.raises(ValueError):
            StragglerFault(ordinal=1, after_start_ms=0.0,
                           duration_ms=100.0, cpu_scale=1.5)
        with pytest.raises(ValueError):
            StragglerFault(ordinal=1, after_start_ms=0.0,
                           duration_ms=100.0, cpu_scale=0.0)

    def test_straggler_duration_positive(self):
        with pytest.raises(ValueError):
            StragglerFault(ordinal=1, after_start_ms=0.0, duration_ms=0.0)

    def test_oom_threshold_positive(self):
        with pytest.raises(ValueError):
            OomKillFault(threshold_mb=0.0)

    def test_oom_max_kills_positive(self):
        with pytest.raises(ValueError):
            OomKillFault(threshold_mb=100.0, max_kills=0)

    def test_dispatch_error_ordinal(self):
        with pytest.raises(ValueError):
            DispatchErrorFault(ordinal=-3)


class TestPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.fault_count() == 0

    def test_fault_count(self):
        plan = FaultPlan(
            crashes=(ContainerCrashFault(ordinal=1, after_start_ms=5.0),),
            dispatch_errors=(DispatchErrorFault(ordinal=2),
                             DispatchErrorFault(ordinal=4)))
        assert plan.fault_count() == 3

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(
            crashes=[ContainerCrashFault(ordinal=1, after_start_ms=5.0)])
        assert isinstance(plan.crashes, tuple)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            crashes=(ContainerCrashFault(ordinal=2, after_start_ms=30.0,
                                         function_id="f1"),),
            cold_start_failures=(ColdStartFailureFault(ordinal=1),),
            stragglers=(StragglerFault(ordinal=1, after_start_ms=10.0,
                                       duration_ms=200.0, cpu_scale=0.5),),
            dispatch_errors=(DispatchErrorFault(ordinal=3),),
            oom_kills=(OomKillFault(threshold_mb=512.0, max_kills=2),))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_round_trip_omits_none_fields(self):
        plan = FaultPlan(
            crashes=(ContainerCrashFault(ordinal=1, after_start_ms=5.0),))
        data = plan.to_dict()
        assert "function_id" not in data["crashes"][0]
        assert FaultPlan.from_dict(data) == plan

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"seed": 1, "meteor_strikes": []})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = reference_plan(seed=3)
        plan.dump(path)
        assert FaultPlan.load(path) == plan

    def test_reference_plan_is_nonempty_and_seeded(self):
        plan = reference_plan(seed=11)
        assert plan.seed == 11
        assert plan.fault_count() >= 5
        assert plan.crashes and plan.dispatch_errors
