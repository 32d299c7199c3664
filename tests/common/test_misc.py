"""Tests for units, ids, tables, validation and the error hierarchy."""

from __future__ import annotations

import pytest

from repro.common import errors
from repro.common.ids import IdFactory
from repro.common.tables import format_cell, render_table, to_csv
from repro.common.units import (
    HOUR,
    MINUTE,
    SECOND,
    clamp,
    gigabytes,
    seconds,
)
from repro.common.validation import (
    require_non_negative,
    require_positive,
)


class TestUnits:
    def test_time_constants(self):
        assert SECOND == 1000.0
        assert MINUTE == 60_000.0
        assert HOUR == 3_600_000.0

    def test_converters_round_trip(self):
        assert seconds(2.5) == 2500.0
        assert gigabytes(4.0) == 4096.0

    def test_clamp(self):
        assert clamp(5.0, 0.0, 10.0) == 5.0
        assert clamp(-1.0, 0.0, 10.0) == 0.0
        assert clamp(99.0, 0.0, 10.0) == 10.0
        with pytest.raises(ValueError):
            clamp(1.0, 10.0, 0.0)


class TestIdFactory:
    def test_sequential_per_prefix(self):
        ids = IdFactory()
        assert ids.next("inv") == "inv-0"
        assert ids.next("inv") == "inv-1"
        assert ids.next("container") == "container-0"
        assert ids.next("inv") == "inv-2"

    def test_two_factories_are_independent(self):
        a, b = IdFactory(), IdFactory()
        a.next("p")
        assert b.next("p") == "p-0"


class TestTables:
    def test_format_cell(self):
        assert format_cell(1.23456) == "1.23"
        assert format_cell(7) == "7"
        assert format_cell(True) == "True"
        assert format_cell("x") == "x"

    def test_render_alignment_and_title(self):
        text = render_table(["name", "value"], [["a", 1.5], ["bb", 22.0]],
                            title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_render_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_to_csv(self):
        csv_text = to_csv(["a", "b"], [[1, 2], [3, 4]])
        assert csv_text.splitlines() == ["a,b", "1,2", "3,4"]


class TestValidation:
    def test_require_positive(self):
        assert require_positive("x", 5) == 5
        with pytest.raises(errors.ConfigurationError):
            require_positive("x", 0)

    def test_require_non_negative(self):
        assert require_non_negative("x", 0) == 0
        with pytest.raises(errors.ConfigurationError):
            require_non_negative("x", -1)


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        leaf_errors = [
            errors.ConfigurationError,
            errors.SimulationError,
            errors.EventAlreadyTriggered,
            errors.ProcessInterrupted,
            errors.SchedulingError,
            errors.ContainerError,
            errors.ContainerStateError,
            errors.ContainerNotFound,
            errors.FunctionNotRegistered,
            errors.CapacityExceeded,
            errors.WorkloadError,
            errors.MultiplexerError,
        ]
        for error_type in leaf_errors:
            assert issubclass(error_type, errors.ReproError)

    def test_interrupt_carries_cause(self):
        exc = errors.ProcessInterrupted(cause={"reason": "test"})
        assert exc.cause == {"reason": "test"}
        assert "test" in str(exc)
