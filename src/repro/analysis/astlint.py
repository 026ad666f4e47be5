"""Pass 5: implementation AST lint (AL5xx).

A rule's *declared* interface is its pattern: the optimizer guarantees the
binding matches the pattern structurally, and nothing more.  This pass
parses the Python source of every rule's ``precondition``/``substitute``
(plus helper methods on the rule class) with the :mod:`ast` module and
flags drift between the declared pattern and the implementation:

* **AL500** (INFO) -- source unavailable (dynamically generated rule);
  the implementation could not be analyzed;
* **AL501** (WARNING) -- attribute read on a node the pattern does not
  bind: a variable mapped to a generic pattern position (or a position
  below the pattern) is accessed beyond the kind-independent
  :class:`LogicalOp` API, or a variable mapped to a bound operator kind
  reads an attribute that kind does not define.  The structural match
  never checked that node's kind, so the read can raise
  ``AttributeError`` (or silently read the wrong field) on a legal
  binding;
* **AL502** (WARNING) -- iteration over an unordered set (set literal,
  comprehension, ``set()``/``frozenset()`` call, or ``column_ids``
  result) without ``sorted()``: plan shapes and diagnostics become
  dependent on ``PYTHONHASHSEED``, breaking determinism;
* **AL503** (ERROR) -- in-place mutation of a binding-derived node
  (attribute assignment, augmented assignment, or a mutating method call
  rooted at the binding).  Memo expressions are shared; operators and
  expressions are frozen dataclasses, so mutation either raises or
  corrupts every plan holding the node;
* **AL504** (WARNING) -- bare ``except:``, which swallows
  ``KeyboardInterrupt``/``SystemExit`` and hides substitution crashes
  that the SV pass would otherwise report.

The variable-to-pattern-position mapping is intentionally shallow: the
``binding`` parameter is the pattern root, and assignments through the
navigation attributes (``child``/``left``/``right``) move to child
positions.  Anything the tracker cannot resolve is left unchecked rather
than guessed at -- the pass is tuned so the clean seed registry reports
zero findings.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.diagnostics import (
    AnalysisPass,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.logical.operators import OPERATOR_CLASSES, LogicalOp, OpKind
from repro.rules.framework import PatternNode, Rule


def _attributes(cls: type) -> FrozenSet[str]:
    """The public names an operator class answers to: its fields,
    properties and methods, its base classes' included."""
    names = set(dir(cls))
    for klass in cls.__mro__:
        names.update(vars(klass).get("__annotations__", ()))
    return frozenset(name for name in names if not name.startswith("_"))


#: Attributes every operator defines, whatever its kind -- safe to read on
#: generic (unbound) pattern positions.
GENERIC_ATTRIBUTES = _attributes(LogicalOp)

#: Attributes each operator kind defines.  A read outside this set on a
#: variable bound to that kind is pattern drift.
ATTRIBUTES_BY_KIND: Dict[OpKind, FrozenSet[str]] = {
    kind: _attributes(cls) for kind, cls in OPERATOR_CLASSES.items()
}

#: Navigation attribute -> child index, used to map variables onto
#: pattern positions.
_NAV_INDEX = {
    name: index
    for cls in OPERATOR_CLASSES.values()
    for index, name in enumerate(cls.child_fields)
}

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "add",
        "discard",
        "update",
        "sort",
        "reverse",
        "setdefault",
    }
)

_HINTS = {
    "AL500": "define the rule in a module so its source can be analyzed",
    "AL501": "narrow the pattern so the node is bound, or guard the read "
    "with an explicit kind check",
    "AL502": "wrap the iterable in sorted(...) to fix the iteration order",
    "AL503": "build a new operator with replaced fields (e.g. "
    "with_children or the dataclass constructor) instead of mutating",
    "AL504": "catch specific exception types so real crashes surface",
}

_REPO_ROOT = Path(__file__).resolve().parents[3]


class AstLinter(AnalysisPass):
    """AST lint over the implementations of a registry's rules."""

    RULE_COUNTER = "rules_ast_linted"

    def check_rule(self, rule: Rule) -> AnalysisReport:
        """Lint one rule instance (also the admission gate's entry point)."""
        findings = AnalysisReport()
        seen: Set[Tuple[str, Optional[str], str]] = set()
        for name, func in _rule_functions(rule):
            parsed = _parse_function(func)
            if parsed is None:
                findings.add(
                    Diagnostic(
                        "AL500",
                        Severity.INFO,
                        f"source of {name} is unavailable; the "
                        "implementation was not analyzed",
                        rule=rule.name,
                        hint=_HINTS["AL500"],
                    )
                )
                continue
            tree, location = parsed
            checker = _FunctionChecker(rule, name, tree, location)
            for diagnostic in checker.check():
                key = (
                    diagnostic.code,
                    diagnostic.location,
                    diagnostic.message,
                )
                if key not in seen:
                    seen.add(key)
                    findings.add(diagnostic)
        return findings


# --------------------------------------------------------------- collection


def _rule_functions(rule: Rule):
    """``(name, function)`` for every method the rule's classes define.

    Walks the MRO up to (excluding) :class:`Rule`, so shared helper base
    classes are analyzed once per rule with the *rule's own* pattern; the
    most-derived definition of each name wins.
    """
    collected: Dict[str, object] = {}
    for cls in type(rule).__mro__:
        if cls is Rule or cls is object:
            break
        for name, member in vars(cls).items():
            if name in collected:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if inspect.isfunction(member):
                collected[name] = member
    return sorted(collected.items())


def _parse_function(func) -> Optional[Tuple[ast.FunctionDef, str]]:
    """Parse a function's source; returns ``(ast, "file:line")`` or None."""
    try:
        source = textwrap.dedent(inspect.getsource(func))
        module = ast.parse(source)
    except (OSError, TypeError, IndentationError, SyntaxError):
        return None
    definition = next(
        (
            node
            for node in module.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    if definition is None:
        return None
    code = getattr(func, "__code__", None)
    filename = code.co_filename if code is not None else "<unknown>"
    try:
        filename = str(Path(filename).resolve().relative_to(_REPO_ROOT))
    except ValueError:
        filename = Path(filename).name
    first_line = code.co_firstlineno if code is not None else 1
    return definition, f"{filename}:{first_line}"


# ----------------------------------------------------------------- checking


class _FunctionChecker(ast.NodeVisitor):
    """Per-function visitor producing AL5xx diagnostics."""

    def __init__(
        self,
        rule: Rule,
        func_name: str,
        tree: ast.FunctionDef,
        location: str,
    ) -> None:
        self.rule = rule
        self.func_name = func_name
        self.tree = tree
        self.file, _, first = location.rpartition(":")
        self.first_line = int(first)
        self.findings: List[Diagnostic] = []
        #: var name -> pattern position (tuple of child indices from root).
        self.positions: Dict[str, Tuple[int, ...]] = {}
        #: var names holding binding-derived objects (superset of above).
        self.derived: Set[str] = set()
        #: var names holding unordered-set values.
        self.sets: Set[str] = set()
        self._bind_parameters()

    # ------------------------------------------------------------ plumbing

    def check(self) -> List[Diagnostic]:
        for statement in self.tree.body:
            self.visit(statement)
        return self.findings

    def _emit(self, code: str, severity: Severity, message: str, node) -> None:
        line = self.first_line + node.lineno - 1
        self.findings.append(
            Diagnostic(
                code,
                severity,
                f"{self.func_name}: {message}",
                rule=self.rule.name,
                location=f"{self.file}:{line}",
                hint=_HINTS[code],
            )
        )

    def _bind_parameters(self) -> None:
        args = [arg.arg for arg in self.tree.args.args]
        root: Optional[str] = None
        if "binding" in args:
            root = "binding"
        elif self.func_name in ("precondition", "substitute") and len(args) > 1:
            root = args[1]
        if root is not None:
            self.positions[root] = ()
            self.derived.add(root)

    # ----------------------------------------------------------- resolution

    def _pattern_at(
        self, position: Tuple[int, ...]
    ) -> Optional[PatternNode]:
        """Pattern node at ``position``, or None when below the pattern."""
        node = self.rule.pattern
        for index in position:
            if node.is_generic or index >= len(node.children):
                return None
            node = node.children[index]
        return node

    def _resolve_position(self, expr) -> Optional[Tuple[int, ...]]:
        if isinstance(expr, ast.Name):
            return self.positions.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._resolve_position(expr.value)
            if base is not None and expr.attr in _NAV_INDEX:
                return base + (_NAV_INDEX[expr.attr],)
        return None

    def _rooted_in_binding(self, expr) -> bool:
        """Is ``expr`` an attribute/subscript chain off a binding var?"""
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return isinstance(expr, ast.Name) and expr.id in self.derived

    def _is_setlike(self, expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.sets
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr == "column_ids":
                return True
        if isinstance(expr, ast.Attribute) and expr.attr == "column_ids":
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_setlike(expr.left) or self._is_setlike(expr.right)
        return False

    # ---------------------------------------------------------- assignments

    def _record_assignment(self, target, value) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        position = self._resolve_position(value)
        if position is not None:
            self.positions[name] = position
        else:
            self.positions.pop(name, None)
        if self._rooted_in_binding(value):
            self.derived.add(name)
        else:
            self.derived.discard(name)
        if self._is_setlike(value):
            self.sets.add(name)
        else:
            self.sets.discard(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_mutation_target(node.targets, node)
        self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Tuple):
                for element in target.elts:
                    self._record_assignment(element, ast.Constant(value=None))
            else:
                self._record_assignment(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_mutation_target([node.target], node)
        self.generic_visit(node)
        if node.value is not None:
            self._record_assignment(node.target, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target([node.target], node)
        self.generic_visit(node)

    def _check_mutation_target(self, targets, node) -> None:
        for target in targets:
            if isinstance(
                target, (ast.Attribute, ast.Subscript)
            ) and self._rooted_in_binding(target):
                self._emit(
                    "AL503",
                    Severity.ERROR,
                    "in-place mutation of a binding-derived node; memo "
                    "expressions are shared and frozen",
                    node,
                )

    # ------------------------------------------------------------- AL501/3

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)
        position = self._resolve_position(node.value)
        if position is None:
            return
        pattern_node = self._pattern_at(position)
        where = "root" + "".join(f".{i}" for i in position)
        if pattern_node is None or pattern_node.is_generic:
            if node.attr not in GENERIC_ATTRIBUTES:
                self._emit(
                    "AL501",
                    Severity.WARNING,
                    f"reads `.{node.attr}` on pattern position {where}, "
                    "which the pattern leaves generic; the structural "
                    "match never checked that node's kind",
                    node,
                )
            return
        if node.attr not in ATTRIBUTES_BY_KIND[pattern_node.kind]:
            self._emit(
                "AL501",
                Severity.WARNING,
                f"reads `.{node.attr}` on pattern position {where}, "
                f"bound to {pattern_node.kind.value}, which defines no "
                "such attribute",
                node,
            )

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and self._rooted_in_binding(func.value)
        ):
            self._emit(
                "AL503",
                Severity.ERROR,
                f"calls `.{func.attr}(...)` on a binding-derived value; "
                "memo expressions are shared and frozen",
                node,
            )

    # --------------------------------------------------------------- AL502

    def _check_iteration(self, iterable, node) -> None:
        if self._is_setlike(iterable):
            self._emit(
                "AL502",
                Severity.WARNING,
                "iterates over an unordered set; plan shapes become "
                "PYTHONHASHSEED-dependent",
                node,
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            self._record_assignment(node.target, ast.Constant(value=None))

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # --------------------------------------------------------------- AL504

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "AL504",
                Severity.WARNING,
                "bare `except:` swallows SystemExit/KeyboardInterrupt and "
                "hides substitution crashes",
                node,
            )
        self.generic_visit(node)
