"""The declared vocabulary: BENCHMARK.json and measure.py say the same."""

import json
import os
import re

from macrobench import measure

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_command():
    bench = declared()
    assert sorted(bench) == ["command", "end_to_end", "paths", "per_layer",
                             "run_seconds", "workloads"]
    assert bench["paths"] == ["macrobench"]
    assert bench["command"] == ["python3", "macrobench/run.py"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60


def test_workloads_match():
    rows = declared()["workloads"]
    assert [row["name"] for row in rows] == list(measure.WORKLOADS)
    for row in rows:
        assert sorted(row) == ["name", "why"]
        assert row["why"] == measure.WORKLOADS[row["name"]]
        assert len(row["why"]) <= 200 and "\n" not in row["why"]


def test_end_to_end_match():
    rows = declared()["end_to_end"]
    assert [(row["name"], row["unit"], row["better"], row["bound"])
            for row in rows] == list(measure.END_TO_END)
    for row in rows:
        assert sorted(row) == ["better", "bound", "name", "unit"]
        assert 0 < row["bound"] <= 0.25
    setup = rows[0]
    assert (setup["name"], setup["unit"], setup["better"]) == (
        "setup_s", "s", "lower")
    assert setup["bound"] == max(row["bound"] for row in rows)


def test_per_layer_match():
    rows = declared()["per_layer"]
    assert [(row["name"], row["unit"], row["better"])
            for row in rows] == list(measure.PER_LAYER)
    assert 1 <= len(rows) <= 128
    for row in rows:
        assert sorted(row) == ["better", "name", "unit"]


def test_names_and_units_are_well_formed():
    names = ([name for name, *_ in measure.END_TO_END]
             + [name for name, *_ in measure.PER_LAYER]
             + list(measure.WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _name, unit, better, *_ in measure.END_TO_END + measure.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
