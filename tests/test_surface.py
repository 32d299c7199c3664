"""Surface census: every public top-level name in ``src/repro`` has a user.

The census parses every module of the package, lists each public top-level
name (function, class or module constant) with the files that use it, and
fails on any name nothing uses.  Three rules decide what counts as a use:

* The corpus is ``src/``, ``benchmarks/``, ``examples/`` and
  ``macrobench/``.  ``tests/`` is not in it: code that only its own tests
  call is dead surface.
* A use is a ``Name`` or ``Attribute`` read or an import alias, so a
  mention in a docstring or comment does not count.  A bare ``Name``
  counts in the defining module; elsewhere the file must import the name
  (from its module or a package above it) or read it as an attribute.
* Re-exports in package ``__init__.py`` files and ``__all__`` entries do
  not count.

Attribute reads are matched by name alone, so a method or module attribute
that shares a public name keeps it alive: the census errs towards keeping.

Print the whole census with ``python tests/test_surface.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CORPUS = ("src", "benchmarks", "examples", "macrobench")

#: ``module:name`` -> why the name stays although the corpus never uses it.
ALLOWED: Dict[str, str] = {}


class _Uses(NamedTuple):
    names: Set[str]  # bare Name reads
    attributes: Set[str]  # Attribute reads
    imports: Set[Tuple[str, str]]  # (from-module, imported name)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def public_names(tree: ast.Module) -> Iterator[str]:
    """Public top-level functions, classes and constants of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            candidates = [node.name]
        elif isinstance(node, ast.Assign):
            candidates = [t.id for t in node.targets
                          if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            candidates = [node.target.id]
        else:
            continue
        yield from (name for name in candidates if not name.startswith("_"))


def _uses(path: Path, tree: ast.Module) -> _Uses:
    uses = _Uses(set(), set(), set())
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            uses.attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imports.extend((node.module, alias.name, alias.asname or alias.name)
                           for alias in node.names)
    # A package __init__ that only re-exports a name does not use it; one
    # whose own code reads the name does.
    reexports = path.name == "__init__.py"
    uses.imports.update((source, name) for source, name, bound in imports
                        if not reexports or bound in uses.names)
    return uses


def census() -> Dict[str, List[str]]:
    """``module:name`` -> corpus files that use it, for every public name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in CORPUS for path in sorted((ROOT / top).rglob("*.py"))}
    uses = {path: _uses(path, tree) for path, tree in trees.items()}
    table: Dict[str, List[str]] = {}
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        module = _module_name(path)
        for name in public_names(tree):
            table[f"{module}:{name}"] = [
                str(user.relative_to(ROOT))
                for user, used in uses.items()
                if name in used.attributes
                or (user == path and name in used.names)
                or any(imported == name and (source == module or
                                             module.startswith(source + "."))
                       for source, imported in used.imports)]
    return table


def test_every_public_name_has_a_user_outside_tests():
    unused = sorted(key for key, users in census().items()
                    if not users and key not in ALLOWED)
    assert not unused, (
        "public names that nothing in src/, benchmarks/, examples/ or "
        "macrobench/ uses (delete them, make them private, or allowlist "
        "them with a reason):\n  " + "\n  ".join(unused))


def test_allowlist_entries_are_needed_and_explained():
    table = census()
    for key, reason in ALLOWED.items():
        assert reason.strip(), f"{key}: allowlist entry without a reason"
        assert key in table, f"{key}: allowlisted name no longer exists"
        assert not table[key], f"{key}: allowlisted but used by {table[key]}"


if __name__ == "__main__":
    for key, users in census().items():
        print(f"{key}\t{len(users)}\t{' '.join(users)}")
