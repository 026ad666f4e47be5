"""The repo's layered benchmark (see bench/README.md and BENCHMARK.json).

Four campaign workloads measured end to end and layer by layer, from
outside, by timing calls into public functions of ``repro``.
"""

import sys
from pathlib import Path

#: The checkout root: the directory holding BENCHMARK.json, bench/ and src/.
ROOT = Path(__file__).resolve().parent.parent


def add_source_path() -> None:
    """Make ``repro`` importable from a bare checkout (no install step)."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {source / 'repro'} is missing")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
