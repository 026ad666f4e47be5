"""The paper's evaluation (Section 6, Figures 8-14) as committed values.

``tools/paper_figures.py`` writes ``tests/data/paper_figures.json``; the
tier-1 tests assert the paper's shape claims on it, one figure each, and the
slow test reruns the tool's ``--check`` (about 7 minutes), naming each moved value.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIGURES = json.loads((REPO_ROOT / "tests" / "data" / "paper_figures.json").read_text())


def _total(rows, column):
    return sum(row[column] for row in rows.values())


def test_fig08_pattern_exercises_every_rule_in_few_trials():
    # A failed campaign spends all 25; PATTERN needs far fewer than RANDOM.
    fig08 = FIGURES["fig08"]
    assert len(fig08) == 30
    assert max(row["PATTERN"] for row in fig08.values()) <= 8
    assert _total(fig08, "PATTERN") * 3 < _total(fig08, "RANDOM")


def test_fig09_pattern_dominates_random_on_pairs():
    # The gap does not shrink materially from n=15 to n=30.
    assert list(FIGURES["fig09"]) == ["n=15", "n=30"]
    ratios = []
    for n, pairs in FIGURES["fig09"].items():
        pattern, rand = _total(pairs, "PATTERN"), _total(pairs, "RANDOM")
        assert pattern * 2 < rand, n
        ratios.append(rand / pattern)
    assert ratios[1] >= 0.8 * ratios[0]


def test_fig10_the_trial_gap_is_an_optimizer_invocation_gap():
    for n, calls in FIGURES["fig10"].items():
        assert calls["PATTERN"] < calls["RANDOM"], n


def test_fig11_smc_and_topk_beat_baseline_on_singletons():
    # TOPK wins by at least 4x somewhere in the sweep.
    fig11 = FIGURES["fig11"]
    for n, cost in fig11.items():
        assert cost["SMC"] < cost["BASELINE"], n
        assert cost["TOPK"] < cost["BASELINE"], n
    assert max(cost["BASELINE"] / cost["TOPK"] for cost in fig11.values()) >= 4.0


def test_fig12_topk_is_best_for_pairs():
    for n, cost in FIGURES["fig12"].items():
        assert cost["TOPK"] < cost["BASELINE"], n
        assert cost["TOPK"] <= cost["SMC"] * 1.05, n


def test_fig13_topk_is_best_at_every_k():
    # SMC's gap to TOPK does not shrink as k grows.
    gaps = []
    for k, cost in FIGURES["fig13"].items():
        assert cost["TOPK"] <= cost["SMC"] * 1.05, k
        gaps.append(cost["SMC"] / cost["TOPK"])
    assert gaps[-1] >= 0.8 * gaps[0]


def test_fig14_monotonicity_saves_invocations_and_is_sound():
    for n, row in FIGURES["fig14"].items():
        assert row["calls mono"] < row["calls plain"], n
        assert row["cost identical"], n
        assert row["cost mono"] == row["cost plain"], n


def test_ablation_structure_and_hints_both_cut_trials():
    # Structure alone beats RANDOM decisively; the rules' argument hints
    # tighten the pattern generator further.
    ablation = FIGURES["ablation_hints"]
    assert _total(ablation, "PATTERN-hints") * 2 < _total(ablation, "RANDOM")
    assert _total(ablation, "PATTERN+hints") < _total(ablation, "PATTERN-hints")


@pytest.mark.slow
def test_committed_figures_are_current():
    proc = subprocess.run(
        [sys.executable, "tools/paper_figures.py", "--check"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "is up to date" in proc.stdout
