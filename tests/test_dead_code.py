"""Dead-code guard over the package sources, with the standard library's
``ast`` only: every name a module imports is read in that module, every
module-level private function is referenced by some module of the package,
and every module-level constant is read by some module of the package.
``__init__.py`` is exempt from the import and constant rules, since its
imports are the public API it re-exports; dunder names are exempt too."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "covfield"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def read_names(tree: ast.AST) -> set[str]:
    """Every name a module reads: bare names loaded, attribute names
    (``mod._f``) and names imported from a sibling module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_read(module):
    tree = TREES[module]
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in loaded
    ]
    assert not unread, f"{module} imports names it never reads: {unread}"


def test_every_private_function_is_referenced():
    referenced = set().union(*map(read_names, TREES.values()))
    unreferenced = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and node.name not in referenced
    ]
    assert not unreferenced, f"module-level private functions no module uses: {unreferenced}"


def test_every_constant_is_read():
    read = set().union(*map(read_names, TREES.values()))
    unread = [
        f"{module}:{target.id}"
        for module, tree in TREES.items() if module != "__init__.py"
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("__")
        and target.id not in read
    ]
    assert not unread, f"module-level constants no module reads: {unread}"
