"""Import contract: each process loads only the tier it runs.

Two halves:

* **Closures.** Each check starts a fresh interpreter, runs one import and
  compares ``sys.modules``.  ``import repro`` loads nothing below it, the
  live gateway loads no simulator, ``run_experiment`` loads no live tier,
  ``repro --help`` loads only the CLI, and a forked shard finds every
  module it runs already imported.  The package facades resolve their
  re-exports on first read (PEP 562), so ``from repro import
  run_experiment`` still works.
* **Layers.** Every module's module-level imports follow :data:`LAYERS`,
  the table in DESIGN.md §6.  Imports inside a function and under
  ``TYPE_CHECKING`` are not edges: they are how an upper layer is reached
  only when it runs.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

#: The layers, bottom up, with the module prefixes in each (the longest
#: matching prefix wins).  A module imports only from its own layer or one
#: below it, and the live tier skips the simulator's layers.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("common", ("repro.common",)),
    ("shared", ("repro.obs",)),
    ("sim-kernel", ("repro.sim",)),
    ("sim-model", ("repro.model", "repro.core.multiplexer")),
    ("sim-inputs", ("repro.workload", "repro.faults")),
    ("sim-platform", ("repro.platformsim",)),
    ("sim-policies", ("repro.baselines", "repro.core")),
    ("sim-tools", ("repro.cluster", "repro.analysis")),
    ("live", ("repro.local", "repro.gateway")),
    ("entry", ("repro.bench", "repro.cli", "repro.__main__")),
)
LIVE_MAY_IMPORT = {"common", "shared", "live"}

SIMULATOR = ("sim", "platformsim", "model", "baselines", "faults",
             "cluster", "workload", "analysis", "bench")


def run(args: List[str]) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def loaded(code: str) -> Set[str]:
    """``sys.modules`` of a fresh interpreter after running *code*."""
    done = run(["-c", code + "\nimport json, sys\n"
                "print(json.dumps(sorted(sys.modules)))"])
    return set(json.loads(done.stdout.splitlines()[-1]))


def ours(modules: Set[str]) -> Set[str]:
    return {name for name in modules
            if name == "repro" or name.startswith("repro.")}


def under(modules: Set[str], packages) -> List[str]:
    return sorted(name for name in modules
                  if any(name == f"repro.{package}"
                         or name.startswith(f"repro.{package}.")
                         for package in packages))


class TestClosures:
    def test_import_repro_loads_no_submodule(self):
        assert ours(loaded("import repro")) == {"repro"}

    def test_gateway_server_loads_no_simulator(self):
        modules = ours(loaded("import repro.gateway.server"))
        assert under(modules, SIMULATOR) == []
        assert under(modules, ("core",)) == []
        assert not modules & {"repro.obs.trace", "repro.obs.timeseries"}
        assert len(modules) <= 16, sorted(modules)

    def test_run_experiment_loads_no_live_tier(self):
        modules = loaded("from repro.platformsim import run_experiment")
        assert "asyncio" not in modules
        assert under(modules, ("local", "gateway", "cluster",
                               "analysis")) == []
        assert "repro.workload.azurefile" not in modules

    def test_cli_help_loads_only_the_cli(self):
        done = run(["-c", "import json, runpy, sys\n"
                    "sys.argv = ['repro', '--help']\n"
                    "try:\n"
                    "    runpy.run_module('repro', run_name='__main__')\n"
                    "except SystemExit:\n"
                    "    pass\n"
                    "print(json.dumps(sorted(sys.modules)))"])
        assert "usage: repro" in done.stdout
        modules = ours(set(json.loads(done.stdout.splitlines()[-1])))
        assert "repro.cli" in modules
        assert modules <= {"repro", "repro.__main__", "repro.cli"}

    def test_a_shard_runs_on_what_the_coordinator_imported(self):
        # Shards are forked after this import; whatever a shard imported
        # itself would be compiled again inside every timed replay.
        done = run(["-c", "import sys\n"
                    "from repro.cluster.sharded import (\n"
                    "    ShardedClusterConfig, run_shard)\n"
                    "before = set(sys.modules)\n"
                    "run_shard(ShardedClusterConfig(\n"
                    "    invocations=200, functions=2, tile_invocations=100), 0)\n"
                    "print(' '.join(sorted(set(sys.modules) - before)))"])
        assert done.stdout.split() == []

    def test_policies_register_without_the_package_facade(self):
        done = run(["-c", "import repro.baselines as b; print(' '.join("
                    "p.name for p in b.registered_policies()))"])
        assert done.stdout.split() == ["vanilla", "sfs", "kraken",
                                       "faasbatch", "hiku", "datadriven"]


def facades() -> List[str]:
    return sorted(module_name(path) for path in PACKAGE.rglob("__init__.py")
                  if "_lazy_exports(" in path.read_text(encoding="utf-8"))


FACADE_PROBE = """
import importlib, json
report = {}
for name in NAMES:
    package = importlib.import_module(name)
    problems = [f"{n}: not in dir()" for n in package.__all__
                if n not in dir(package)]
    for n in package.__all__:
        try:
            getattr(package, n)
        except AttributeError as error:
            problems.append(f"{n}: {error}")
    star = {}
    exec(f"from {name} import *", star)
    problems += [f"{n}: missing after import *" for n in package.__all__
                 if n not in star]
    try:
        package.no_such_export
        problems.append("unknown name resolved")
    except AttributeError as error:
        if repr(name) not in str(error):
            problems.append(f"unknown name error does not name it: {error}")
    report[name] = problems
print(json.dumps(report))
"""


def test_every_facade_resolves_its_exports():
    names = facades()
    assert "repro" in names and "repro.obs" in names
    done = run(["-c", f"NAMES = {names!r}\n" + FACADE_PROBE])
    report = json.loads(done.stdout.splitlines()[-1])
    assert {name: problems for name, problems in report.items()
            if problems} == {}


def quickstarts() -> Iterator[Tuple[str, str]]:
    """The ``repro`` docstring's quickstart and the README's code blocks."""
    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    docstring = ast.get_docstring(ast.parse(source)) or ""
    block = docstring.split("Quickstart::", 1)[1]
    yield "docstring", "\n".join(line[4:] for line in block.splitlines())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    for index, code in enumerate(re.findall(r"```python\n(.*?)```", section,
                                            flags=re.S)):
        yield f"README-{index}", code


@pytest.mark.parametrize("label, code", list(quickstarts()),
                         ids=[label for label, _ in quickstarts()])
def test_quickstart_runs(label, code):
    run(["-c", code])


def module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def module_imports(body: List[ast.stmt]) -> Iterator[str]:
    """``repro`` modules imported by *body* at module level."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.If):
            if "TYPE_CHECKING" not in ast.dump(node.test):
                yield from module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from module_imports(
                node.body + node.orelse + node.finalbody
                + [stmt for handler in node.handlers
                   for stmt in handler.body])


def layer_of(module: str) -> int:
    matches = [(len(prefix), index)
               for index, (_name, prefixes) in enumerate(LAYERS)
               for prefix in prefixes
               if module == prefix or module.startswith(prefix + ".")]
    assert matches, f"{module} is in no layer of LAYERS"
    return max(matches)[1]


def test_module_level_imports_follow_the_layers():
    edges: Dict[str, List[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        edges[module] = [name for name in module_imports(tree.body)
                         if name.startswith("repro.")]
    wrong = []
    for module, imports in edges.items():
        if module == "repro":
            continue
        own = layer_of(module)
        for target in imports:
            theirs = layer_of(target)
            live_reaches_sim = (LAYERS[own][0] == "live"
                                and LAYERS[theirs][0] not in LIVE_MAY_IMPORT)
            if theirs > own or live_reaches_sim:
                wrong.append(f"{module} ({LAYERS[own][0]}) imports "
                             f"{target} ({LAYERS[theirs][0]})")
    assert wrong == []
