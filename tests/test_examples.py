"""Every example script runs to completion against the current package.

The examples are real importers of the public API: a deletion that
orphans one of their imports fails here (and in CI's lint step).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script, tmp_path):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
