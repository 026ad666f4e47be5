"""Every fenced ``python`` block in README.md and docs/*.md must run.

Blocks of one file share a namespace and run in order (README's second
block continues its first).  Each file runs in an empty working
directory, so a snippet that writes a file leaves nothing in the repo.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_FENCE = re.compile(r"^```python[ \t]*\n(.*?)^```[ \t]*$", re.M | re.S)


def _python_blocks(path: Path):
    return [match.group(1) for match in _FENCE.finditer(path.read_text())]


DOCUMENTS = [
    path
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    if _python_blocks(path)
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
