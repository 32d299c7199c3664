"""Surface census: every public name in ``src/repro`` has a user.

The census parses every module of the corpus, lists each public top-level
name (function, class or module constant) of the package and each public
method and property of a public class (``module:Class.method``) with the
files that use it, and fails on any name nothing uses.  These rules decide
what counts as a use:

* The corpus is ``src/``, ``benchmarks/``, ``examples/`` and
  ``macrobench/``.  ``tests/`` is not in it: code that only its own tests
  call is dead surface.
* A use is a ``Name`` or ``Attribute`` read, so a mention in a docstring
  or comment does not count, and neither does an import that nothing
  reads.  A bare ``Name`` counts in the defining module; elsewhere the
  file must import the name (from its module or a package above it) or
  read it as an attribute.  A method is used by an ``Attribute`` read of
  its name.
* A method whose name is also a ``dict``, ``list``, ``set`` or ``str``
  method is read only in a file that also names its class or imports its
  module, and an attribute of a display or a string (``(payload or
  {}).get``) is never a read: ``self.cache.get(key)`` in some other module
  does not keep a ``get`` of some class alive.
* Liveness is transitive.  A use counts when it comes from outside
  ``src/``, from module-level code of a ``src/`` module (decorators
  included), or from inside a definition that is itself live: a top-level
  definition (public or private), or a public method.  Code in a class
  body outside its public methods (private methods and dunders included)
  belongs to the class.  A method is live only while its class is.  So a
  chain of names that only each other use is dead from its head to its
  tail.
* Re-exports in package ``__init__.py`` files and ``__all__`` entries do
  not count: they are imports and strings, not reads.

Other attribute reads are matched by name alone, so an attribute read that
shares a public name keeps it alive: the census errs towards keeping.  The
same rule for names two ``src/`` classes share would report duck-typed
families (the CPU engines, ``Trace``/``TraceStream``, the streaming
sinks), whose readers name neither class.  What a
framework calls by name (an asyncio ``Protocol`` callback, ``Thread.run``)
has no reader in the corpus and is listed in ``ALLOWED``.

Print the whole census with ``python tests/test_surface.py``.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ("src", "benchmarks", "examples", "macrobench")

#: ``module:name`` or ``module:Class.method`` -> why the name stays
#: although the corpus never uses it (a framework calls it by name).
ALLOWED: Dict[str, str] = {}

#: Names an attribute read may mean whatever the receiver is: a method
#: that shares one needs its class or module named where it is read.
BUILTIN_METHODS: FrozenSet[str] = frozenset(
    name for kind in (dict, list, set, str) for name in dir(kind)
    if not name.startswith("_"))

#: The definitions a use sits in (top-level names, or ``Class.method``);
#: ``None`` for code that runs whatever else is used (module level, or a
#: file outside ``src/``).
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


def public_methods(node: ast.stmt) -> Iterator[ast.stmt]:
    """Public methods and properties of a public top-level class."""
    if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
        yield from (child for child in node.body
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                    and not child.name.startswith("_"))


def _named(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """``(identifiers, imported modules)`` of one file: every name, attribute
    and import alias it mentions, and every module it imports from."""
    identifiers: Set[str] = set()
    imported: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            identifiers.add(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            identifiers.add(node.name)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            for alias in node.names:
                identifiers.add(alias.name)
                imported.add(f"{node.module}.{alias.name}")
    return identifiers, imported


_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.JoinedStr,
             ast.DictComp, ast.ListComp, ast.SetComp)


def _builtin_receiver(node: ast.expr) -> bool:
    """Whether *node* is plainly a builtin: a display, a string, or
    ``x or <display>``."""
    if isinstance(node, ast.BoolOp):
        return _builtin_receiver(node.values[-1])
    return isinstance(node, _DISPLAYS) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str))


def _reads(node: ast.AST) -> Iterator[Tuple[str, str]]:
    """``("name" | "attr", identifier)`` for every read under *node*; an
    attribute of a plain builtin (``(payload or {}).get``) is not one."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield "name", child.id
        elif isinstance(child, ast.Attribute) and isinstance(
                child.ctx, ast.Load) and not _builtin_receiver(child.value):
            yield "attr", child.attr


def _body_reads(node: ast.AST) -> Iterator[Tuple[ast.AST, str, str]]:
    """``(child, kind, identifier)`` for every read under *node* outside
    its decorators, with the direct child of *node* it sits in."""
    for field, value in ast.iter_fields(node):
        if field == "decorator_list":
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from ((child, kind, ident)
                            for kind, ident in _reads(child))


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
        methods = list(public_methods(node))
        for child, kind, ident in _body_reads(node):
            if child not in methods:
                yield owners, kind, ident
        for method in methods:
            for decorator in method.decorator_list:
                yield from ((owners, kind, ident)
                            for kind, ident in _reads(decorator))
            key = frozenset([f"{node.name}.{method.name}"])
            yield from ((key, kind, ident)
                        for _child, kind, ident in _body_reads(method))


def census(corpus: Mapping[str, str]) -> Dict[str, List[str]]:
    """``module:name`` / ``module:Class.method`` -> files whose live code
    uses it, for every public name of the ``src/`` modules of *corpus*
    (``relative path -> source``).
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

    named = {path: _named(tree) for path, tree in trees.items()}

    def reads_it(path: str, module: str, cls: str, method: str) -> bool:
        """Whether a read of *method* in *path* may be *cls*'s."""
        identifiers, imported = named[path]
        return (method not in BUILTIN_METHODS or module in imported
                or modules.get(path) == module or cls in identifiers)

    # Every read of each definition, as (file, owners) sites; each method
    # with the class it belongs to.
    sites: Dict[str, List[Tuple[str, Owners]]] = {}
    methods_of: Dict[str, List[str]] = defaultdict(list)
    parent: Dict[str, str] = {}
    for path, module in modules.items():
        for names, node in _definitions(trees[path]):
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
            for method in public_methods(node):
                key = f"{module}:{node.name}.{method.name}"
                sites[key] = [
                    (user, owners) for user, owners
                    in attr_reads.get(method.name, ())
                    if reads_it(user, module, node.name, method.name)]
                parent[key] = f"{module}:{node.name}"
                methods_of[parent[key]].append(key)

    def owner_keys(path: str, owners: FrozenSet[str]) -> List[str]:
        return [f"{modules[path]}:{owner}" for owner in owners]

    live: Set[str] = set()

    def counts(path: str, owners: Owners) -> bool:
        return owners is None or any(owner in live for owner
                                     in owner_keys(path, owners))

    users_of: Dict[str, Set[str]] = defaultdict(set)
    for key, found in sites.items():
        for path, owners in found:
            if owners is not None:
                for owner in owner_keys(path, owners):
                    users_of[owner].add(key)
    frontier = list(sites)
    while frontier:
        key = frontier.pop()
        cls = parent.get(key)
        if key in live or (cls is not None and cls not in live):
            continue
        if any(counts(path, owners) for path, owners in sites[key]):
            live.add(key)
            frontier += users_of.get(key, ())
            frontier += methods_of.get(key, ())

    table = {f"{module}:{name}": sites[f"{module}:{name}"]
             for path, module in modules.items()
             for name in public_names(trees[path])}
    table.update((key, sites[key]) for key in parent)
    return {key: sorted({path for path, owners in found
                         if counts(path, owners)})
            for key, found in table.items()}


def unused_names(table: Mapping[str, List[str]],
                 allowed: Mapping[str, str] = ALLOWED) -> List[str]:
    """The names of a census *table* nothing uses, less the *allowed*."""
    return sorted(key for key, users in table.items()
                  if not users and key not in allowed)


def test_every_public_name_has_a_user_outside_tests():
    unused = unused_names(census(read_corpus()))
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



def test_a_method_only_tests_read_is_reported(tmp_path):
    files = {
        "src/pkg/__init__.py": "",
        "src/pkg/box.py": (
            "import asyncio\n\n\n"
            "class Box(asyncio.Protocol):\n"
            "    def used(self):\n        return 1\n\n"
            "    def tested(self):\n        return self.via_tested()\n\n"
            "    def via_tested(self):\n        return 2\n\n"
            "    def get(self, key):\n        return key\n\n"
            "    def data_received(self, data):\n        return data\n"),
        # ``.get`` reads of dicts: one in a file that never names Box, one
        # on a display in a file that does.
        "src/pkg/util.py": ("def lookup(mapping):\n"
                            "    return mapping.get('k')\n"),
        "src/pkg/main.py": ("from pkg.box import Box\n"
                            "from pkg.util import lookup\n\n\n"
                            "def main(options=None):\n"
                            "    lookup((options or {}).get('k', {}))\n"
                            "    return Box().used()\n"),
        "examples/run.py": "from pkg.main import main\n\nmain()\n",
        "tests/test_box.py": ("from pkg.box import Box\n\n\n"
                              "def test_box():\n"
                              "    assert Box().tested() == 2\n"
                              "    assert Box().get(1) == 1\n"),
    }
    for path, source in files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(source)
    table = census(read_corpus(tmp_path))
    assert table["pkg.box:Box.used"] == ["src/pkg/main.py"]
    assert table["pkg.box:Box.tested"] == []
    assert table["pkg.box:Box.via_tested"] == []  # read by a dead method
    assert table["pkg.box:Box.get"] == []  # only dicts' get is read
    callback = "pkg.box:Box.data_received"
    assert unused_names(table, {}) == [
        callback, "pkg.box:Box.get", "pkg.box:Box.tested",
        "pkg.box:Box.via_tested"]
    assert unused_names(table, {callback: "asyncio calls it"}) == [
        "pkg.box:Box.get", "pkg.box:Box.tested", "pkg.box:Box.via_tested"]


if __name__ == "__main__":
    for key, users in census(read_corpus()).items():
        print(f"{key}\t{len(users)}\t{' '.join(users)}")
