"""The SLO/burn-rate gate: spec validation, evaluation, CLI exit codes."""

from __future__ import annotations

import copy
import glob
import json
import os
import re

import pytest

from repro.bench import BENCH_SCHEMA, load_report, validate_report
from repro.common.errors import ConfigurationError
from repro.obs.slo import (
    SloSpec,
    annotate_report,
    default_specs,
    evaluate_artifact,
    evaluate_cell,
    evaluate_records,
    load_specs,
    max_burn_rate,
    slo_table,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
COMMITTED = ("BENCH_sim.json", "BENCH_gateway.json", "BENCH_cluster.json",
             "BENCH_windows.json")
#: Keys only retired features ever wrote (and anything the deleted
#: ``--profile`` mode embedded); a re-recorded artifact has none.
RETIRED_KEYS = {"engine", "engines", "speedup", "baseline", "queue"}


def committed_artifact(name: str) -> dict:
    return load_report(os.path.join(REPO_ROOT, name))


def all_keys(node) -> set:
    if isinstance(node, dict):
        return set(node).union(*(all_keys(v) for v in node.values()))
    if isinstance(node, list):
        return set().union(*(all_keys(v) for v in node))
    return set()


class TestSloSpec:
    def test_rejects_unknown_section(self):
        with pytest.raises(ConfigurationError, match="applies_to"):
            SloSpec(name="x", applies_to="nope")

    def test_rejects_out_of_range_goodput(self):
        with pytest.raises(ConfigurationError, match="goodput_floor"):
            SloSpec(name="x", goodput_floor=1.5)

    def test_rejects_zero_error_budget(self):
        with pytest.raises(ConfigurationError, match="error_budget"):
            SloSpec(name="x", error_budget=0.0)

    def test_burn_ceiling_requires_budget(self):
        with pytest.raises(ConfigurationError, match="burn_rate_ceiling"):
            SloSpec(name="x", burn_rate_ceiling=14.0)

    def test_round_trips_through_dict(self):
        for spec in default_specs():
            assert SloSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown slo"):
            SloSpec.from_dict({"name": "x", "goodput": 0.9})

    def test_load_specs(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(
            {"slos": [{"name": "g", "goodput_floor": 0.9}]}))
        specs = load_specs(path)
        assert [s.name for s in specs] == ["g"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"slos": []}))
        with pytest.raises(ConfigurationError, match="non-empty"):
            load_specs(bad)


class TestMaxBurnRate:
    def test_whole_series_single_window(self):
        offered = [[0.0, 100.0], [1.0, 100.0]]
        goodput = [[0.0, 99.0], [1.0, 100.0]]
        # One 2 s window: 1 error / 200 offered = 0.5% -> burn 0.5 at 1%.
        assert max_burn_rate(offered, goodput, 0.01, 2.0) \
            == pytest.approx(0.5)

    def test_sliding_window_finds_the_burst(self):
        offered = [[float(t), 100.0] for t in range(6)]
        goodput = [[float(t), 100.0] for t in range(6)]
        goodput[3] = [3.0, 50.0]  # one bad second in a clean run
        worst = max_burn_rate(offered, goodput, 0.01, 1.0)
        # The 1 s window isolates the burst: 50% errors -> burn 50.
        assert worst == pytest.approx(50.0)
        relaxed = max_burn_rate(offered, goodput, 0.01, 6.0)
        # The full-run window dilutes it: 50/600 errors -> burn ~8.3.
        assert relaxed == pytest.approx(50.0 / 600.0 / 0.01)

    def test_zero_offered_windows_are_skipped(self):
        offered = [[0.0, 0.0], [1.0, 0.0]]
        assert max_burn_rate(offered, [], 0.01, 1.0) is None

    def test_empty_series_is_none(self):
        assert max_burn_rate([], [], 0.01, 1.0) is None


class TestEvaluateCell:
    def gateway_row(self, **overrides) -> dict:
        row = {"cell": "faasbatch", "policy": "faasbatch",
               "goodput_ratio": 1.0, "latency_ms": {"p99": 169.0}}
        row.update(overrides)
        return row

    def spec(self) -> SloSpec:
        return default_specs()[0]  # gateway-goodput

    def test_passing_cell(self):
        result = evaluate_cell(self.spec(), "gateway_cells",
                               self.gateway_row())
        assert result is not None and result.ok
        assert {c.check for c in result.checks} \
            == {"goodput_floor", "p99_ceiling_ms", "burn_rate_ceiling"}

    def test_match_filter_skips_other_policies(self):
        row = self.gateway_row(policy="vanilla")
        assert evaluate_cell(self.spec(), "gateway_cells", row) is None

    def test_violations_fail_per_check(self):
        row = self.gateway_row(goodput_ratio=0.9,
                               latency_ms={"p99": 5_000.0})
        result = evaluate_cell(self.spec(), "gateway_cells", row)
        by_check = {c.check: c for c in result.checks}
        assert not result.ok
        assert not by_check["goodput_floor"].ok
        assert not by_check["p99_ceiling_ms"].ok
        # 10% errors on a 1% budget: whole-run burn rate 10.
        assert by_check["burn_rate_ceiling"].observed \
            == pytest.approx(10.0)

    def test_missing_observable_fails_closed(self):
        row = self.gateway_row()
        del row["goodput_ratio"]
        result = evaluate_cell(self.spec(), "gateway_cells", row)
        by_check = {c.check: c for c in result.checks}
        assert not by_check["goodput_floor"].ok
        assert by_check["goodput_floor"].observed is None

    def test_cluster_goodput_derives_from_counts(self):
        spec = SloSpec(name="c", applies_to="cluster_cells",
                       goodput_floor=0.999)
        at_floor = evaluate_cell(spec, "cluster_cells",
                                 {"cell": "azure", "completed": 999,
                                  "failed": 1})
        assert at_floor.ok  # the floor is inclusive
        assert at_floor.checks[0].observed == pytest.approx(0.999)
        below = evaluate_cell(spec, "cluster_cells",
                              {"cell": "azure", "completed": 999,
                               "failed": 2})
        assert not below.ok


class TestCommittedArtifacts:
    """The acceptance gate: pass on what's committed, fail on a doctored copy."""

    def test_default_gate_passes_on_committed_artifacts(self):
        # Every BENCH_*.json at the root, unmodified, through the one
        # strict loader, on the one schema.
        found = {os.path.basename(path) for path in
                 glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))}
        assert set(COMMITTED) <= found
        for name in sorted(found):
            report = committed_artifact(name)
            assert report["schema"] == BENCH_SCHEMA, name
            keys = all_keys(report)
            assert not RETIRED_KEYS & keys, name
            assert not [key for key in keys if key.startswith("profile")]
            results = evaluate_artifact(report, default_specs(),
                                        target_prefix=f"{name}:")
            assert results, f"the gate must evaluate something in {name}"
            assert all(result.ok for result in results), \
                [r.to_dict() for r in results if not r.ok]

    def test_doctored_gateway_artifact_fails(self):
        report = committed_artifact("BENCH_gateway.json")
        doctored = False
        for row in report["gateway_cells"]:
            if row.get("policy") == "faasbatch":
                row["goodput_ratio"] = 0.5
                doctored = True
        assert doctored
        results = evaluate_artifact(report, default_specs())
        assert any(not result.ok for result in results)

    def test_doctored_sim_throughput_fails(self):
        report = committed_artifact("BENCH_sim.json")
        for row in report["runs"]:
            row["events_per_sec"] = 100.0
        results = evaluate_artifact(report, default_specs())
        failed = [r for r in results if not r.ok]
        assert failed and all(r.spec == "sim-throughput" for r in failed)


class TestEvaluateRecords:
    def records(self, bad_bucket: bool) -> list:
        offered = [[t * 0.25, 40.0] for t in range(8)]
        good = [[t * 0.25, 40.0] for t in range(8)]
        if bad_bucket:
            good[4] = [1.0, 10.0]
        return [
            {"type": "gateway-series", "policy": "faasbatch",
             "name": "offered_rps", "points": offered},
            {"type": "gateway-series", "policy": "faasbatch",
             "name": "goodput_rps", "points": good},
            {"type": "gateway-cell", "policy": "faasbatch"},
        ]

    def test_clean_stream_passes(self):
        results = evaluate_records(self.records(False), default_specs())
        assert len(results) == 1
        assert results[0].ok
        assert results[0].target == "records[faasbatch]"

    def test_burst_trips_the_sliding_window(self):
        spec = SloSpec(name="tight", applies_to="gateway_cells",
                       error_budget=0.01, burn_rate_ceiling=14.0,
                       window_s=0.5)
        results = evaluate_records(self.records(True), [spec])
        assert len(results) == 1 and not results[0].ok
        # The 0.5 s window catches the 30/80 error burst: burn 37.5.
        assert results[0].checks[0].observed == pytest.approx(37.5)


class TestAnnotateReport:
    def test_annotated_report_stays_schema_valid(self):
        report = committed_artifact("BENCH_gateway.json")
        annotated = annotate_report(copy.deepcopy(report), default_specs())
        cells = {row["cell"]: row for row in annotated["gateway_cells"]}
        assert cells["faasbatch"]["slo"]["ok"] is True
        assert "slo" not in cells["vanilla"]  # control arm stays ungated
        validate_report(annotated)  # the attached blocks are schema-valid

    def test_slo_table_shape(self):
        results = evaluate_artifact(
            committed_artifact("BENCH_gateway.json"), default_specs())
        headers, rows = slo_table(results)
        assert headers[0] == "spec" and headers[-1] == "ok"
        assert all(row[-1] == "pass" for row in rows)


class TestCli:
    def run_cli(self, *argv: str) -> int:
        from repro.cli import main
        return main(list(argv))

    def test_check_passes_on_committed_artifacts(self, capsys):
        code = self.run_cli(
            "slo", *(os.path.join(REPO_ROOT, name) for name in COMMITTED),
            "--check")
        out = capsys.readouterr().out
        assert code == 0
        assert "pass" in out and "FAIL" not in out

    def test_check_fails_on_doctored_artifact(self, tmp_path, capsys):
        report = committed_artifact("BENCH_gateway.json")
        for row in report["gateway_cells"]:
            row["goodput_ratio"] = 0.2
        doctored = tmp_path / "BENCH_bad.json"
        doctored.write_text(json.dumps(report))
        code = self.run_cli("slo", str(doctored), "--check")
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_fails_when_nothing_evaluates(self, tmp_path, capsys):
        # A valid report no spec matches: only the ungated control arm.
        report = committed_artifact("BENCH_gateway.json")
        report["gateway_cells"] = [row for row in report["gateway_cells"]
                                   if row["policy"] == "vanilla"]
        unmatched = tmp_path / "BENCH_unmatched.json"
        unmatched.write_text(json.dumps(report))
        assert self.run_cli("slo", str(unmatched), "--check") == 1
        assert "No SLO specs matched" in capsys.readouterr().out

    def test_unreadable_artifact_is_an_input_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert self.run_cli("slo", str(missing), "--check") == 2

    @pytest.mark.parametrize("doctor,field", [
        (lambda report: report.update(schema="faasbatch-bench/v4"),
         "schema"),
        (lambda report: report["gateway_cells"][0].update(goodput_ratio=7),
         r"gateway_cells\['faasbatch'\]\.goodput_ratio"),
    ])
    def test_artifact_that_fails_validation_is_an_input_error(
            self, doctor, field, tmp_path, capsys):
        report = committed_artifact("BENCH_gateway.json")
        doctor(report)
        invalid = tmp_path / "BENCH_invalid.json"
        invalid.write_text(json.dumps(report))
        assert self.run_cli("slo", str(invalid)) == 2
        captured = capsys.readouterr()
        assert "SLO evaluation" not in captured.out
        assert str(invalid) in captured.err
        assert re.search(field, captured.err)

    def test_annotate_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_gateway.json"
        path.write_text(json.dumps(committed_artifact("BENCH_gateway.json")))
        assert self.run_cli("slo", str(path), "--annotate") == 0
        annotated = load_report(str(path))
        assert any("slo" in row for row in annotated["gateway_cells"])
        assert list(tmp_path.iterdir()) == [path]

        # A write that dies midway leaves the previous file intact.
        before = path.read_bytes()

        def dying_dump(report, handle, **kwargs):
            handle.write('{"schema": "faasbatch-be')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dying_dump)
        with pytest.raises(OSError, match="disk full"):
            self.run_cli("slo", str(path), "--annotate")
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
