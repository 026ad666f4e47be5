"""Every fenced ``python`` block in README.md and docs/*.md must run, and
every ``python -m repro ...`` line of a ``bash`` block must parse.

Python blocks of one file share a namespace and run in order (README's
second block continues its first).  Each file runs in an empty working
directory, so a snippet that writes a file leaves nothing in the repo.
Command lines are only parsed against the real argument parser, never
run, so placeholders such as ``"SELECT ..."`` are fine; what the check
guards is a documented flag or subcommand that no longer exists.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
ALL_DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _blocks(path: Path, language: str):
    fence = re.compile(
        rf"^```{language}[ \t]*\n(.*?)^```[ \t]*$", re.M | re.S
    )
    return [match.group(1) for match in fence.finditer(path.read_text())]


def _python_blocks(path: Path):
    return _blocks(path, "python")


def _repro_command_lines(path: Path):
    """``(text, argv)`` of every ``python -m repro[.cli] ...`` command in
    the file's bash blocks: continuation lines joined, comments, leading
    ``VAR=value`` assignments and shell redirections dropped."""
    commands = []
    for block in _blocks(path, "bash"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):
                words.pop(0)
            if words[:2] != ["python", "-m"] or words[2:3] not in (
                ["repro"], ["repro.cli"]
            ):
                continue
            argv = words[3:]
            for index, word in enumerate(argv):
                if word in (">", ">>", "|", "&&"):
                    argv = argv[:index]
                    break
            commands.append((" ".join(words), argv))
    return commands


PARSER = build_parser()
DOCUMENTS = [path for path in ALL_DOCUMENTS if _python_blocks(path)]
COMMAND_LINES = [
    pytest.param(argv, id=f"{path.name}: {text}")
    for path in ALL_DOCUMENTS
    for text, argv in _repro_command_lines(path)
]


def test_the_documents_with_snippets_are_found():
    names = {path.name for path in DOCUMENTS}
    assert {"README.md", "OBSERVABILITY.md"} <= names


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_python_snippets_run(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": f"snippet:{path.name}"}
    for index, block in enumerate(_python_blocks(path), start=1):
        code = compile(block, f"{path.name}#python-block-{index}", "exec")
        exec(code, namespace)


def test_the_documented_command_lines_are_found():
    assert len(COMMAND_LINES) >= 45


@pytest.mark.parametrize("argv", COMMAND_LINES)
def test_documented_command_lines_parse(argv):
    try:
        PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse reports a bad line by exiting
        pytest.fail(f"repro {' '.join(argv)} does not parse (exit {exc.code})")
