"""README drift guard: the library quick start runs as written, and every
``covfield ...`` line of the README's bash blocks parses with the CLI's own
parser (parsed only, never run), so a public name or flag cannot go while
the README still shows it."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from covfield import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang: str):
    """(heading, body) for every fenced block in ``lang``, with the nearest
    ``#`` heading above it."""
    for m in re.finditer(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S):
        headings = re.findall(r"^#+ (.+)$", README[: m.start()], flags=re.M)
        yield headings[-1] if headings else "", m.group(1)


def test_quick_start_runs_and_documented_commands_parse():
    quick = [body for heading, body in fenced_blocks("python") if heading == "Library quick start"]
    assert len(quick) == 1
    exec(compile(quick[0], "README.md: Library quick start", "exec"), {})

    lines = [line.split("#", 1)[0].strip()
             for _, body in fenced_blocks("bash") for line in body.splitlines()]
    commands = [line for line in lines if line.startswith("covfield ")]
    assert commands
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subcommands.choices.values():
        sub.allow_abbrev = False   # a renamed flag must not parse as an abbreviation of it
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
