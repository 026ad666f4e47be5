"""Tests for the implementation AST lint (AL5xx).

The linter reads each rule's ``precondition``/``substitute`` source and
flags drift between the declared pattern and the implementation: reads
on unbound pattern positions, unordered-set iteration, in-place mutation
of matched nodes, and bare ``except`` clauses.
"""

from repro.analysis import AstLinter, Severity
from repro.logical.operators import OpKind
from repro.rules.framework import ANY, P, Rule
from repro.rules.registry import RuleRegistry, default_registry


def _lint(rule):
    return AstLinter(RuleRegistry([rule], [])).check_rule(rule).diagnostics


def _codes(diagnostics):
    return {d.code for d in diagnostics}


class _ReadsUnboundPosition(Rule):
    name = "ReadsUnboundPosition"
    pattern = P(OpKind.SELECT, ANY)

    def substitute(self, binding, ctx):
        # binding.child sits on a generic pattern position: its operator
        # kind is unconstrained, so .predicate may not exist.
        yield binding.child.predicate


class _ReadsWrongKindAttr(Rule):
    name = "ReadsWrongKindAttr"
    pattern = P(OpKind.SELECT, ANY)

    def substitute(self, binding, ctx):
        # The root is bound to SELECT, which has no join_kind.
        yield binding.join_kind


class _IteratesUnorderedSet(Rule):
    name = "IteratesUnorderedSet"
    pattern = P(OpKind.SELECT, ANY)

    def precondition(self, binding, ctx):
        for column in ctx.column_ids(binding):
            if column:
                return True
        return False

    def substitute(self, binding, ctx):
        return ()


class _MutatesBinding(Rule):
    name = "MutatesBinding"
    pattern = P(OpKind.SELECT, ANY)

    def substitute(self, binding, ctx):
        binding.predicate = None
        return ()


class _MutatorCallOnBinding(Rule):
    name = "MutatorCallOnBinding"
    pattern = P(OpKind.PROJECT, ANY)

    def substitute(self, binding, ctx):
        binding.outputs.append(None)
        return ()


class _BareExcept(Rule):
    name = "BareExcept"
    pattern = P(OpKind.SELECT, ANY)

    def precondition(self, binding, ctx):
        try:
            return bool(binding.predicate)
        except:  # noqa: E722 -- the defect under test
            return False

    def substitute(self, binding, ctx):
        return ()


class _CleanRule(Rule):
    name = "CleanProbe"
    pattern = P(OpKind.SELECT, ANY)

    def precondition(self, binding, ctx):
        return binding.predicate is not None

    def substitute(self, binding, ctx):
        for column in sorted(ctx.column_ids(binding)):
            if column:
                break
        yield binding.child


class TestCleanRegistry:
    def test_no_findings_on_default_registry(self):
        report = AstLinter(default_registry()).run()
        assert not report.diagnostics
        assert report.counters["rules_ast_linted"] == 56

    def test_clean_rule_passes(self):
        assert _lint(_CleanRule()) == []


class TestDefects:
    def test_unbound_position_read_is_al501(self):
        diags = _lint(_ReadsUnboundPosition())
        assert "AL501" in _codes(diags)
        diag = next(d for d in diags if d.code == "AL501")
        assert diag.severity is Severity.WARNING
        assert "root.0" in diag.message

    def test_wrong_kind_attr_read_is_al501(self):
        diags = _lint(_ReadsWrongKindAttr())
        assert "AL501" in _codes(diags)
        diag = next(d for d in diags if d.code == "AL501")
        assert "join_kind" in diag.message

    def test_unordered_iteration_is_al502(self):
        diags = _lint(_IteratesUnorderedSet())
        assert "AL502" in _codes(diags)

    def test_attribute_assignment_is_al503(self):
        diags = _lint(_MutatesBinding())
        assert "AL503" in _codes(diags)
        diag = next(d for d in diags if d.code == "AL503")
        assert diag.severity is Severity.ERROR

    def test_mutator_call_is_al503(self):
        diags = _lint(_MutatorCallOnBinding())
        assert "AL503" in _codes(diags)

    def test_bare_except_is_al504(self):
        diags = _lint(_BareExcept())
        assert "AL504" in _codes(diags)

    def test_diagnostics_carry_location_and_hint(self):
        for rule in (
            _ReadsUnboundPosition(),
            _IteratesUnorderedSet(),
            _MutatesBinding(),
            _BareExcept(),
        ):
            for diag in _lint(rule):
                assert diag.rule == rule.name
                assert diag.hint, diag
                # file:line anchored in this test module.
                assert "test_analysis_astlint.py:" in (diag.location or "")


class TestSourceUnavailable:
    def test_generated_rule_is_al500(self):
        source = (
            "from repro.rules.framework import ANY, P, Rule\n"
            "from repro.logical.operators import OpKind\n"
            "class Generated(Rule):\n"
            "    name = 'GeneratedProbe'\n"
            "    pattern = P(OpKind.SELECT, ANY)\n"
            "    def substitute(self, binding, ctx):\n"
            "        return ()\n"
        )
        namespace = {}
        exec(source, namespace)  # noqa: S102 -- deliberate sourceless class
        diags = _lint(namespace["Generated"]())
        assert _codes(diags) == {"AL500"}
        assert all(d.severity is Severity.INFO for d in diags)
