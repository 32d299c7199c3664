"""Surface census: every public top-level name in ``src/repro`` has a user.

The census parses every module of the corpus, lists each public top-level
name (function, class or module constant) of the package with the files
that use it, and fails on any name nothing uses.  These rules decide what
counts as a use:

* The corpus is ``src/``, ``benchmarks/``, ``examples/`` and
  ``macrobench/``.  ``tests/`` is not in it: code that only its own tests
  call is dead surface.
* A use is a ``Name`` or ``Attribute`` read, so a mention in a docstring
  or comment does not count, and neither does an import that nothing
  reads.  A bare ``Name`` counts in the defining module; elsewhere the
  file must import the name (from its module or a package above it) or
  read it as an attribute.
* Liveness is transitive.  A use counts when it comes from outside
  ``src/``, from module-level code of a ``src/`` module (decorators
  included), or from inside a top-level definition (public or private)
  that is itself live.  So a chain of names that only each other use is
  dead from its head to its tail.
* Re-exports in package ``__init__.py`` files and ``__all__`` entries do
  not count: they are imports and strings, not reads.

Attribute reads are matched by name alone, so a method or module attribute
that shares a public name keeps it alive: the census errs towards keeping.

Print the whole census with ``python tests/test_surface.py``.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ("src", "benchmarks", "examples", "macrobench")

#: ``module:name`` -> why the name stays although the corpus never uses it.
ALLOWED: Dict[str, str] = {}

#: The top-level definitions a use sits in; ``None`` for code that runs
#: whatever else is used (module level, or a file outside ``src/``).
Owners = Optional[FrozenSet[str]]


def read_corpus(root: Path = ROOT,
                tops: Tuple[str, ...] = CORPUS) -> Dict[str, str]:
    """``relative path -> source`` for every Python file under *tops*."""
    return {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
            for top in tops for path in sorted((root / top).rglob("*.py"))}


def _module_name(path: str) -> str:
    parts = path[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(tree: ast.Module) -> Iterator[Tuple[List[str], ast.stmt]]:
    """Each top-level statement with the names it defines (none for
    plain module-level code)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield [node.name], node
        elif isinstance(node, ast.Assign) and all(
                isinstance(target, ast.Name) for target in node.targets):
            yield [target.id for target in node.targets], node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield [node.target.id], node
        else:
            yield [], node


def public_names(tree: ast.Module) -> Iterator[str]:
    """Public top-level functions, classes and constants of one module."""
    for names, _node in _definitions(tree):
        yield from (name for name in names if not name.startswith("_"))


def _reads(node: ast.AST) -> Iterator[Tuple[str, str]]:
    """``("name" | "attr", identifier)`` for every read under *node*."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield "name", child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx,
                                                             ast.Load):
            yield "attr", child.attr


def _owned_reads(tree: ast.Module, in_src: bool
                 ) -> Iterator[Tuple[Owners, str, str]]:
    """Every read of one file with the definitions it sits in."""
    for names, node in _definitions(tree):
        if not in_src or not names:
            yield from ((None, kind, ident) for kind, ident in _reads(node))
            continue
        owners = frozenset(names)
        for decorator in getattr(node, "decorator_list", []):
            yield from ((None, kind, ident)
                        for kind, ident in _reads(decorator))
        for field, value in ast.iter_fields(node):
            if field == "decorator_list":
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from ((owners, kind, ident)
                                for kind, ident in _reads(child))


def census(corpus: Mapping[str, str]) -> Dict[str, List[str]]:
    """``module:name`` -> files whose live code uses it, for every public
    name of the ``src/`` modules of *corpus* (``relative path -> source``).
    """
    trees = {path: ast.parse(source) for path, source in corpus.items()}
    modules = {path: _module_name(path) for path in trees
               if path.startswith("src/")}
    # imported name -> (importing file, bound alias, source module)
    imports: Dict[str, List[Tuple[str, str, str]]] = defaultdict(list)
    attr_reads: Dict[str, List[Tuple[str, Owners]]] = defaultdict(list)
    name_reads: Dict[Tuple[str, str], List[Owners]] = defaultdict(list)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.name].append(
                        (path, alias.asname or alias.name, node.module))
        for owners, kind, ident in _owned_reads(tree, path in modules):
            if kind == "attr":
                attr_reads[ident].append((path, owners))
            else:
                name_reads[(path, ident)].append(owners)

    # Every read of each top-level definition, as (file, owners) sites.
    sites: Dict[str, List[Tuple[str, Owners]]] = {}
    for path, module in modules.items():
        for names, _node in _definitions(trees[path]):
            for name in names:
                found = list(attr_reads.get(name, ()))
                found += [(path, owners)
                          for owners in name_reads.get((path, name), ())]
                for user, alias, source in imports.get(name, ()):
                    if user != path and (source == module
                                         or module.startswith(source + ".")):
                        found += [(user, owners) for owners
                                  in name_reads.get((user, alias), ())]
                sites[f"{module}:{name}"] = found

    def owner_keys(path: str, owners: FrozenSet[str]) -> List[str]:
        return [f"{modules[path]}:{owner}" for owner in owners]

    live: Set[str] = {key for key, found in sites.items()
                      if any(owners is None for _path, owners in found)}
    users_of: Dict[str, Set[str]] = defaultdict(set)
    for key, found in sites.items():
        for path, owners in found:
            if owners is not None:
                for owner in owner_keys(path, owners):
                    users_of[owner].add(key)
    frontier = list(live)
    while frontier:
        for key in users_of.get(frontier.pop(), ()):
            if key not in live:
                live.add(key)
                frontier.append(key)

    return {f"{module}:{name}": sorted({
                path for path, owners in sites[f"{module}:{name}"]
                if owners is None
                or any(owner in live for owner in owner_keys(path, owners))})
            for path, module in modules.items()
            for name in public_names(trees[path])}


def test_every_public_name_has_a_user_outside_tests():
    unused = sorted(key for key, users in census(read_corpus()).items()
                    if not users and key not in ALLOWED)
    assert not unused, (
        "public names that no live code in src/, benchmarks/, examples/ "
        "or macrobench/ uses (delete them, make them private, or "
        "allowlist them with a reason):\n  " + "\n  ".join(unused))


def test_allowlist_entries_are_needed_and_explained():
    table = census(read_corpus())
    for key, reason in ALLOWED.items():
        assert reason.strip(), f"{key}: allowlist entry without a reason"
        assert key in table, f"{key}: allowlisted name no longer exists"
        assert not table[key], f"{key}: allowlisted but used by {table[key]}"


def test_a_use_from_a_dead_name_does_not_count():
    corpus = {
        "src/pkg/__init__.py": "",
        "src/pkg/a.py": "def helper():\n    return 1\n",
        "src/pkg/b.py": ("from pkg.a import helper\n\n\n"
                         "def unused():\n    return helper()\n"),
    }
    assert census(corpus) == {"pkg.a:helper": [], "pkg.b:unused": []}
    corpus["examples/run.py"] = "from pkg.b import unused\n\nunused()\n"
    assert census(corpus) == {"pkg.a:helper": ["src/pkg/b.py"],
                              "pkg.b:unused": ["examples/run.py"]}


if __name__ == "__main__":
    for key, users in census(read_corpus()).items():
        print(f"{key}\t{len(users)}\t{' '.join(users)}")
