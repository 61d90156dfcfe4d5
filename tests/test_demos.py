"""The demos import only names the package still has, run to the end, and
get every number they print from a ``covfield`` subcommand.

Each demo runs the CLI subcommand it illustrates through
``covfield.cli.run`` and reads that CSV back, so the CLI is the one place
that computes and writes each artifact.  The run test checks that each
script finishes and writes what it names; it checks no digits, since those
depend on the BLAS thread count.
"""

import ast
import importlib
import re
import runpy
import shutil
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


def resolves(mod: str, name: str) -> bool:
    """Whether ``from mod import name`` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(mod), name):
        return True
    try:
        importlib.import_module(f"{mod}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    names = list(covfield_imports(path))
    assert names, f"{path.name} imports nothing from covfield"
    missing = [f"{mod}.{name}" for mod, name in names if not resolves(mod, name)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_writes_only_through_the_cli(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [f for f in calls if isinstance(f, ast.Name) and f.id == "open"]
    assert not [f for f in calls if isinstance(f, ast.Attribute) and f.attr == "write"]
    assert ("covfield", "cli") in set(covfield_imports(path))
    assert [f for f in calls if isinstance(f, ast.Attribute) and f.attr == "run"
            and isinstance(f.value, ast.Name) and f.value.id == "cli"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, capsys):
    script = tmp_path / path.name
    shutil.copy(path, script)
    runpy.run_path(str(script), run_name="__main__")
    written = re.findall(r"-> (\S+)", capsys.readouterr().out)
    assert written
    for out in written:
        assert Path(out).is_file() and Path(out).parent == tmp_path / "out"
