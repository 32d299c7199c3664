"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from tests.traces import read_trace_csv

ROOT = Path(__file__).resolve().parents[1]


class TestCompare:
    def test_compare_cpu(self, capsys):
        assert main(["compare", "--workload", "cpu", "--total", "60"]) == 0
        out = capsys.readouterr().out
        assert "Scheduler summary" in out
        for name in ("Vanilla", "SFS", "Kraken", "FaaSBatch"):
            assert name in out
        assert "Reductions achieved by FaaSBatch" in out

    def test_compare_io_with_cdfs(self, capsys):
        assert main(["compare", "--workload", "io", "--total", "60",
                     "--cdfs"]) == 0
        out = capsys.readouterr().out
        assert "scheduling latency CDF" in out
        assert "cold_start latency CDF" in out


class TestSweep:
    def test_sweep(self, capsys):
        assert main(["sweep", "--workload", "io", "--total", "60",
                     "--windows", "50,200"]) == 0
        out = capsys.readouterr().out
        assert "dispatch-interval sweep" in out
        assert "0.05" in out and "0.20" in out


class TestTrace:
    def test_trace_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        assert main(["trace", "--workload", "cpu", "--total", "50",
                     "--out", str(out_path)]) == 0
        assert len(read_trace_csv(out_path)) == 50

    def test_trace_without_out_errors(self, capsys):
        assert main(["trace", "--workload", "cpu"]) == 2
        assert "--out is required" in capsys.readouterr().err


class TestSpanTracing:
    def test_compare_exports_spans_then_summarize(self, tmp_path, capsys):
        spans_path = tmp_path / "spans.jsonl"
        assert main(["compare", "--workload", "cpu", "--total", "40",
                     "--trace", str(spans_path)]) == 0
        out = capsys.readouterr().out
        assert f"span/event/series records to {spans_path}" in out

        records = [json.loads(line)
                   for line in spans_path.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        # 4 schedulers x 40 invocations x 5 stages each.
        assert len(spans) == 4 * 40 * 5
        # Sampling rides along with tracing: telemetry series per run.
        series = [r for r in records if r["type"] == "series"]
        assert {r["name"] for r in series} >= {"cpu.utilization",
                                               "containers.live"}
        assert {r["scheduler"] for r in records} == \
            {"Vanilla", "SFS", "Kraken", "FaaSBatch"}

        assert main(["trace", "summarize", str(spans_path)]) == 0
        out = capsys.readouterr().out
        assert "Span summary" in out
        for stage in ("queued", "cold-start", "dispatched", "executing",
                      "responding"):
            assert stage in out
        assert "FaaSBatch: 40" in out

    def test_summarize_counts_a_retried_invocation_once(self, tmp_path,
                                                        capsys):
        """Each attempt (``inv-0#a2``) has its own timeline, but they are
        one invocation."""
        path = tmp_path / "retried.jsonl"
        path.write_text("".join(
            json.dumps({"type": "span", "invocation_id": trace_id,
                        "stage": "queued", "start_ms": 0.0, "end_ms": 1.0,
                        "scheduler": "X"}) + "\n"
            for trace_id in ("inv-0", "inv-0#a2", "inv-0#a3", "inv-1")))
        assert main(["trace", "summarize", str(path)]) == 0
        assert "4 spans over X: 2 invocations" in capsys.readouterr().out

    def test_sweep_exports_spans_per_window(self, tmp_path, capsys):
        spans_path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--workload", "io", "--total", "40",
                     "--windows", "50,200", "--trace", str(spans_path)]) == 0
        records = [json.loads(line)
                   for line in spans_path.read_text().splitlines()]
        assert {r["scheduler"] for r in records} == \
            {"FaaSBatch[50ms]", "FaaSBatch[200ms]"}

    def test_summarize_missing_file_errors(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_summarize_malformed_json_errors(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json at all\n")
        assert main(["trace", "summarize", str(garbage)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_summarize_no_spans_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"type": "container-event"}\n')
        assert main(["trace", "summarize", str(empty)]) == 2
        assert "no span records" in capsys.readouterr().err

    def test_summarize_empty_file_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 0
        assert "nothing to summarize" in capsys.readouterr().out

    def test_summarize_tolerates_truncated_tail(self, tmp_path, capsys):
        path = tmp_path / "truncated.jsonl"
        path.write_text(
            '{"type": "span", "invocation_id": "i1", "stage": "queued", '
            '"start_ms": 0.0, "end_ms": 5.0, "scheduler": "X"}\n'
            '{"type": "span", "invocation_id": "i1", "st')  # killed mid-write
        assert main(["trace", "summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 truncated trailing line" in captured.err
        assert "Span summary" in captured.out


class TestTraceExportAndReport:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "spans.jsonl"
        assert main(["compare", "--workload", "cpu", "--total", "40",
                     "--trace", str(path)]) == 0
        return path

    def test_export_chrome_trace(self, trace_path, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace
        out = tmp_path / "trace.json"
        assert main(["trace", "export", str(trace_path),
                     "--out", str(out)]) == 0
        assert "trace events" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"M", "X", "C"} <= phases  # metadata, slices, counters

    def test_export_is_deterministic(self, trace_path, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["trace", "export", str(trace_path),
                     "--out", str(first)]) == 0
        assert main(["trace", "export", str(trace_path),
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_export_missing_file_errors(self, tmp_path, capsys):
        assert main(["trace", "export", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_critical_path_table(self, trace_path, capsys):
        assert main(["trace", "critical-path", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Critical-path attribution" in out
        for scheduler in ("Vanilla", "SFS", "Kraken", "FaaSBatch"):
            assert scheduler in out
        assert "dominates" in out

    def test_report_from_trace_file(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.html"
        chrome = tmp_path / "trace.json"
        assert main(["report", "--input", str(trace_path),
                     "--out", str(out), "--chrome", str(chrome)]) == 0
        document = out.read_text()
        assert document.count("<svg") == 4  # one per chart
        for chart_id in ("chart-utilization", "chart-latency-cdf",
                         "chart-stage-breakdown", "chart-containers"):
            assert chart_id in document
        for scheduler in ("Vanilla", "SFS", "Kraken", "FaaSBatch"):
            assert scheduler in document
        assert chrome.exists()

    def test_report_empty_input_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--input", str(empty),
                     "--out", str(tmp_path / "r.html")]) == 2
        assert "no records" in capsys.readouterr().err


class TestAzureCommands:
    def test_sample_then_replay(self, tmp_path, capsys):
        assert main(["sample-azure", "--dir", str(tmp_path),
                     "--functions", "3"]) == 0
        assert main(["replay-azure", "--dir", str(tmp_path),
                     "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "Azure trace replay" in out

    def test_replay_missing_files_errors(self, tmp_path, capsys):
        assert main(["replay-azure", "--dir", str(tmp_path)]) == 2
        assert "could not locate" in capsys.readouterr().err


class TestLoadgen:
    def test_loadgen_writes_all_artifacts(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_gateway.json"
        records = tmp_path / "gateway.jsonl"
        report = tmp_path / "gateway.html"
        assert main(["loadgen", "--rps", "150", "--duration", "0.5",
                     "--policies", "faasbatch,vanilla",
                     "--out", str(out_json), "--records", str(records),
                     "--report", str(report)]) == 0
        printed = capsys.readouterr().out
        assert "Gateway load cells" in printed
        from repro.bench import load_report
        artifact = load_report(str(out_json))
        assert [c["cell"] for c in artifact["gateway_cells"]] == \
            ["faasbatch", "vanilla"]
        lines = [json.loads(line)
                 for line in records.read_text().splitlines()]
        assert {line["type"] for line in lines} >= \
            {"gateway-cell", "gateway-cdf", "gateway-series"}
        html = report.read_text()
        assert "Live gateway" in html
        assert "chart-gateway-cdf" in html

    def test_adaptive_run_gives_every_cell_the_same_phases(self):
        from repro.cli import _gateway_cell_specs, build_parser
        args = build_parser().parse_args(
            ["loadgen", "--rps", "100", "--duration", "3",
             "--policies", "faasbatch,vanilla,adaptive"])
        specs = _gateway_cell_specs(args)
        assert [spec.policy for spec in specs] == \
            ["faasbatch", "vanilla", "adaptive"]
        assert len(specs[0].phases) == 3
        assert all(spec.phases == specs[0].phases for spec in specs)

    def test_loadgen_rejects_bad_mix(self, capsys):
        assert main(["loadgen", "--rps", "10", "--duration", "0.1",
                     "--mix", "echo"]) == 2
        assert "bad mix entry" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSchedulerSelection:
    def test_compare_with_selection(self, capsys):
        assert main(["compare", "--workload", "io", "--total", "60",
                     "--schedulers", "vanilla,hiku,datadriven"]) == 0
        out = capsys.readouterr().out
        assert "Running 3 schedulers" in out
        for name in ("Vanilla", "Hiku", "DataDriven"):
            assert name in out
        # No FaaSBatch in the selection: the reduction table is skipped.
        assert "Reductions achieved by FaaSBatch" not in out

    def test_compare_unknown_scheduler_exits_2(self, capsys):
        assert main(["compare", "--workload", "io", "--total", "20",
                     "--schedulers", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown scheduler 'bogus'" in err
        assert "registered policies:" in err

    def test_chaos_with_selection(self, capsys):
        assert main(["chaos", "--workload", "io", "--total", "40",
                     "--schedulers", "vanilla,hiku"]) == 0
        out = capsys.readouterr().out
        assert "Hiku" in out and "Vanilla" in out

    def test_bench_selection_error_exits_2(self, capsys):
        assert main(["bench", "--invocations", "40", "--inline",
                     "--schedulers", "kraken"]) == 2
        assert "add vanilla" in capsys.readouterr().err


class TestServe:
    def test_serve_answers_then_stops_on_sigint(self):
        """``repro serve`` in its own process: one invocation, /stats, and
        a Ctrl-C that stops it cleanly."""
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            address = None
            with selectors.DefaultSelector() as selector:
                selector.register(server.stdout, selectors.EVENT_READ)
                deadline = time.monotonic() + 30.0
                while address is None and time.monotonic() < deadline:
                    if not selector.select(deadline - time.monotonic()):
                        break
                    line = server.stdout.readline()
                    if not line:
                        break
                    found = re.search(r"Serving .* on (http://\S+:\d+)",
                                      line)
                    address = found and found.group(1)
            assert address, "the server never said where it serves"
            request = urllib.request.Request(
                f"{address}/invoke/echo", data=b'{"n": 1}', method="POST")
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
                assert json.loads(response.read()) == {"result": {"n": 1}}
            with urllib.request.urlopen(f"{address}/stats",
                                        timeout=10) as response:
                assert json.loads(response.read())["requests_total"] == 1
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
