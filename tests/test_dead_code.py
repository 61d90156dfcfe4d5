"""Dead-code guard over the package sources, with the standard library's
``ast`` only: every name a module imports is read in that module, and every
module-level private function is referenced by some module of the package.
``__init__.py`` is exempt from the import rule, since its imports are the
public API it re-exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "covfield"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def read_names(tree: ast.AST) -> set[str]:
    """Every name a module reads: bare names, attribute names (``mod._f``)
    and names imported from a sibling module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
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
