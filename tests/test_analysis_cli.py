"""Tests for the ``repro analyze`` CLI command and the docs --check mode."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import STATIC_PASSES
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestAnalyzeCommand:
    def test_clean_registry_exits_zero(self, capsys):
        assert main(["analyze", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "rules_linted=56" in out
        assert "rules_verified=56" in out

    def test_injected_fault_exits_nonzero(self, capsys):
        code = main(
            [
                "analyze",
                "--skip-lint",
                "--seeds",
                "3",
                "--fault",
                "LojToJoinOnNullReject",
            ]
        )
        assert code == 1
        assert "SV206" in capsys.readouterr().out

    def test_json_output_parses(self, capsys):
        assert main(["analyze", "--seeds", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["counters"]["rules_verified"] == 56

    def test_fail_on_warning_threshold(self, capsys):
        # The clean registry has zero warnings too, so even the stricter
        # threshold passes.
        assert main(["analyze", "--seeds", "2", "--fail-on", "warning"]) == 0
        capsys.readouterr()

    def test_sanitized_plans_smoke(self, capsys):
        assert main(["analyze", "--skip-lint", "--skip-verify",
                     "--plans", "2"]) == 0
        out = capsys.readouterr().out
        assert "plans_sanitized=2" in out

    def test_skip_flags_skip(self, capsys):
        assert main(["analyze", "--skip-verify", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "rules_verified" not in out
        assert "rules_linted=56" in out

    def test_every_pass_table_row_has_its_selector_flag(self):
        # `repro analyze` selects rows by flag name, so a row without its
        # --skip-<name> (or --<name>, when opt-in) flag could never be
        # (de)selected.
        args = build_parser().parse_args(["analyze"])
        for static in STATIC_PASSES:
            if static.opt_in:
                assert getattr(args, static.name) is False
            else:
                assert getattr(args, f"skip_{static.name}") is False


class TestDocsCheckMode:
    def _run_check(self):
        return subprocess.run(
            [sys.executable, "tools/generate_rule_docs.py", "--check"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )

    def test_committed_docs_are_current(self):
        proc = self._run_check()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "up to date" in proc.stdout

    def test_stale_docs_fail_check(self, tmp_path):
        docs = REPO_ROOT / "docs" / "RULES.md"
        original = docs.read_text()
        drifted = {
            "trailing line": original + "\nstale trailing line\n",
            "missing rule": original.replace(
                "### JoinCommutativity", "### SomethingElse"
            ),
            "stale pattern": original.replace(
                "- pattern: `Distinct(?)`", "- pattern: `Distinct(Get)`", 1
            ),
            "undocumented rule": original + "\n### NotARegisteredRule\n",
        }
        try:
            for case, text in drifted.items():
                assert text != original, case
                docs.write_text(text)
                proc = self._run_check()
                assert proc.returncode == 1, case
                assert "STALE" in proc.stdout, case
        finally:
            docs.write_text(original)
