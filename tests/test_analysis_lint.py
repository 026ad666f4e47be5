"""Tests for the registry lint pass."""

import pytest

from repro.analysis import RegistryLinter, pattern_subsumes
from repro.analysis.verify import default_workloads
from repro.logical.operators import JoinKind, OpKind
from repro.rules.framework import ANY, P, Rule
from repro.rules.registry import RuleRegistry, default_registry

@pytest.fixture(scope="module")
def workloads():
    return default_workloads(seed=1)


@pytest.fixture(scope="module")
def clean_report(workloads):
    linter = RegistryLinter(
        default_registry(),
        workloads,
        samples_per_workload=4,
    )
    return linter.run()


class TestPatternSubsumes:
    def test_generic_subsumes_everything(self):
        assert pattern_subsumes(ANY, P(OpKind.SELECT, ANY))
        assert pattern_subsumes(ANY, ANY)

    def test_specific_does_not_subsume_generic(self):
        assert not pattern_subsumes(P(OpKind.SELECT, ANY), ANY)

    def test_join_kind_superset(self):
        wide = P(OpKind.JOIN, ANY, ANY,
                 join_kinds=(JoinKind.INNER, JoinKind.CROSS))
        narrow = P(OpKind.JOIN, ANY, ANY, join_kinds=(JoinKind.INNER,))
        assert pattern_subsumes(wide, narrow)
        assert not pattern_subsumes(narrow, wide)

    def test_unrestricted_join_subsumes_restricted(self):
        assert pattern_subsumes(
            P(OpKind.JOIN, ANY, ANY),
            P(OpKind.JOIN, ANY, ANY, join_kinds=(JoinKind.SEMI,)),
        )

    def test_different_kinds_incomparable(self):
        assert not pattern_subsumes(
            P(OpKind.SELECT, ANY), P(OpKind.DISTINCT, ANY)
        )


class TestCleanRegistry:
    def test_no_errors_or_warnings(self, clean_report):
        assert clean_report.errors == []
        assert clean_report.warnings == []

    def test_all_rules_linted(self, clean_report):
        registry = default_registry()
        assert clean_report.counters["rules_linted"] == len(
            registry.all_rules
        )

    def test_known_duplicate_patterns_reported_as_info(self, clean_report):
        codes = {d.code for d in clean_report.infos}
        assert "RL110" in codes  # e.g. DistinctRemoveOnKey / DistinctToGbAgg


class _MalformedArity(Rule):
    name = "MalformedArity"
    # JOIN takes two children; this pattern can never match.
    pattern = P(OpKind.JOIN, ANY)

    def substitute(self, binding, ctx):
        return ()


class _NeverFires(Rule):
    name = "NeverFires"
    pattern = P(OpKind.SELECT, ANY)

    def precondition(self, binding, ctx):
        return False

    def substitute(self, binding, ctx):
        return ()


class _BadName(Rule):
    name = "not a valid identifier!"
    pattern = P(OpKind.SELECT, ANY)

    def substitute(self, binding, ctx):
        return ()


class TestDefects:
    def _lint(self, rule, workloads, **kwargs):
        registry = RuleRegistry([rule], [])
        return RegistryLinter(
            registry, workloads, samples_per_workload=3, **kwargs
        ).run()

    def test_malformed_arity_is_error(self, workloads):
        report = self._lint(_MalformedArity(), workloads)
        assert any(d.code == "RL101" for d in report.errors)

    def test_malformed_arity_also_dead(self, workloads):
        report = self._lint(_MalformedArity(), workloads)
        assert any(d.code == "RL120" for d in report.warnings)

    def test_dead_precondition_is_warning(self, workloads):
        report = self._lint(_NeverFires(), workloads)
        assert any(d.code == "RL121" for d in report.warnings)
        assert not report.errors

    def test_bad_name_is_error(self, workloads):
        report = self._lint(_BadName(), workloads)
        assert any(d.code == "RL103" for d in report.errors)
