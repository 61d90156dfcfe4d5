"""The demos import only names the package still has.

No test runs the demos (they take minutes and write plots), so a public
name removed from covfield would otherwise break them unnoticed.  Each
script is parsed, not executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def covfield_imports(path: Path):
    """(module, name) for every ``from covfield[.sub] import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "covfield" or node.module.startswith("covfield.")):
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    names = list(covfield_imports(path))
    assert names, f"{path.name} imports nothing from covfield"
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
