#!/usr/bin/env python
"""Run the simulator perf bench with the standard BENCH scenario.

Thin wrapper over ``python -m repro bench`` so the benchmark directory has
a single obvious entry point::

    PYTHONPATH=src python benchmarks/perf_harness.py
    PYTHONPATH=src python benchmarks/perf_harness.py --invocations 5000 \\
        --out /tmp/bench.json

The full default scenario (50k invocations, four schedulers plus the
observability cell) takes about a minute.  The report is a single-shot,
host-specific record; a speed claim is judged by ``macrobench/run.py``
(see "Record vs judge" in docs/performance.md, which also explains how to
read the report).
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
