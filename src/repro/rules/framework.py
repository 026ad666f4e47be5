"""The transformation-rule framework.

Following the paper (Section 3.1), every rule is a triple
``(Rule Name, Rule Pattern, Substitution)``:

* the **pattern** is a small operator tree whose leaves may be *generic*
  placeholders (the circles in the paper's Figure 3) matching any input;
* during optimization the rule engine checks whether a memo expression
  matches the pattern, and if so invokes the **substitution** to produce new
  equivalent expressions;
* a rule may additionally carry a **precondition** over the bound operator
  tree (e.g. "the grouping columns must include the join columns"), checked
  after the structural match.

A rule is *exercised* for a query exactly when, during that query's
optimization, its pattern matched, its precondition passed, and its
substitution yielded at least one expression -- whether or not the memo
already held it.

The same pattern objects are exported through :func:`pattern_to_xml` -- the
paper's "API through which [the server] returns the rule pattern tree for a
rule in a XML format" -- and consumed by the pattern-based query generator.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.logical.operators import (
    OPERATOR_CLASSES,
    JoinKind,
    LogicalOp,
    OpKind,
)


@dataclass(frozen=True)
class PatternNode:
    """One node of a rule pattern.

    ``kind is None`` denotes a generic placeholder that matches any operator
    subtree.  For ``JOIN`` and ``APPLY`` patterns, ``join_kinds`` optionally
    restricts the matching join/apply kinds (``None`` means any).
    """

    kind: Optional[OpKind]
    children: Tuple["PatternNode", ...] = ()
    join_kinds: Optional[Tuple[JoinKind, ...]] = None

    def __post_init__(self) -> None:
        if self.kind is None and self.children:
            raise ValueError("generic pattern nodes cannot have children")
        if self.join_kinds is not None and (
            self.kind is None
            or OPERATOR_CLASSES[self.kind].join_kind_field is None
        ):
            raise ValueError(
                "join_kinds only applies to JOIN and APPLY patterns"
            )

    @property
    def is_generic(self) -> bool:
        return self.kind is None

    def matches_op(self, op: LogicalOp) -> bool:
        """Does this single node match operator ``op`` (ignoring children)?"""
        if self.kind is None:
            return True
        if op.kind is not self.kind:
            return False
        if self.join_kinds is not None:
            return getattr(op, op.join_kind_field) in self.join_kinds
        return True

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def operator_count(self) -> int:
        """Number of non-generic nodes in the pattern."""
        own = 0 if self.is_generic else 1
        return own + sum(child.operator_count() for child in self.children)

    def __str__(self) -> str:
        if self.is_generic:
            return "?"
        label = self.kind.value
        if self.join_kinds is not None:
            label += "[" + "|".join(k.value for k in self.join_kinds) + "]"
        if not self.children:
            return label
        return f"{label}({', '.join(str(child) for child in self.children)})"


#: A generic leaf (matches any operator), the "circle" of the paper's Fig. 3.
ANY = PatternNode(None)


def P(kind: OpKind, *children: PatternNode, join_kinds=None) -> PatternNode:
    """Shorthand constructor for pattern trees."""
    return PatternNode(
        kind,
        tuple(children),
        tuple(join_kinds) if join_kinds is not None else None,
    )


class RuleType:
    EXPLORATION = "exploration"
    IMPLEMENTATION = "implementation"


class Rule:
    """Base class for transformation rules.

    Subclasses define :attr:`name`, :attr:`pattern` and override
    :meth:`substitute`; :meth:`precondition` defaults to always-true.
    """

    name: str = ""
    pattern: PatternNode = ANY
    rule_type: str = RuleType.EXPLORATION

    #: Free-form note describing the semantic condition the rule relies on;
    #: surfaced in documentation and the registry listing.
    condition_note: str = ""

    #: Argument-level guidance for the pattern-based query generator -- the
    #: paper's "additional preconditions on the input pattern" (Section 3.1:
    #: "if such constraints are well abstracted in the database engine, they
    #: can potentially be added as additional preconditions on the input
    #: pattern and leveraged by the query generation module").  Keys/values
    #: are interpreted by :mod:`repro.testing.pattern_gen`; structural
    #: matching never depends on them.
    generation_hints: dict = {}

    def precondition(self, binding: LogicalOp, ctx: "RuleContext") -> bool:
        """Semantic check on a structurally matched ``binding``."""
        return True

    def substitute(
        self, binding: LogicalOp, ctx: "RuleContext"
    ) -> Iterable[object]:
        """Produce substitute expressions for a matched ``binding``.

        Exploration rules yield logical operators; implementation rules yield
        physical operators.  Children of yielded trees may be
        :class:`~repro.logical.operators.GroupRef` leaves taken from the
        binding, existing bound subtrees, or newly built operators.
        """
        raise NotImplementedError

    def substitutions(
        self, binding: LogicalOp, ctx: "RuleContext"
    ) -> list:
        """Materialized substitution outputs for ``binding``.

        Analysis hook: checks the precondition and drains the substitution
        generator, so static passes can enumerate a rule's outputs without
        replicating precondition handling.  Returns ``[]`` when the
        precondition rejects the binding.  Exceptions propagate -- callers
        that treat crashes as findings catch them (see SV201).
        """
        if not self.precondition(binding, ctx):
            return []
        return list(self.substitute(binding, ctx))

    @property
    def is_exploration(self) -> bool:
        return self.rule_type == RuleType.EXPLORATION

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"


class RuleContext:
    """Services available to preconditions and substitutions.

    Provides logical properties and cardinality estimates for any node of a
    binding (operator or group reference), plus the catalog.  The concrete
    implementation lives in the optimizer; the abstract interface keeps the
    rule library free of memo internals.
    """

    def props(self, node):
        """Logical properties (:class:`LogicalProps`) of ``node``."""
        raise NotImplementedError

    def estimate(self, node):
        """Cardinality estimate (:class:`RelEstimate`) of ``node``."""
        raise NotImplementedError

    @property
    def catalog(self):
        raise NotImplementedError

    # Convenience accessors used heavily by rule preconditions.

    def columns(self, node) -> Tuple:
        return self.props(node).columns

    def column_ids(self, node) -> frozenset:
        return self.props(node).column_ids


def match_structure(op: LogicalOp, pattern: PatternNode) -> bool:
    """Shallow structural match of a *tree* against a pattern.

    Used by tests and the query generators (the optimizer's own matching
    works against memo bindings, see :mod:`repro.optimizer.binding`).
    """
    if not pattern.matches_op(op):
        return False
    if pattern.is_generic:
        return True
    if len(pattern.children) != len(op.children):
        return False
    return all(
        isinstance(child, LogicalOp) and match_structure(child, sub)
        for child, sub in zip(op.children, pattern.children)
    )


def tree_contains_pattern(op: LogicalOp, pattern: PatternNode) -> bool:
    """Does any subtree of ``op`` match ``pattern``?"""
    return any(match_structure(node, pattern) for node in op.walk())


def walk_pattern(pattern: PatternNode, path: str = "root"):
    """Yield ``(node, path)`` for every node of a pattern, pre-order.

    Paths are dotted child indices (``root``, ``root.0``, ``root.0.1``) --
    the coordinate system the analysis passes use to anchor diagnostics
    and to map implementation variables onto pattern positions.
    """
    yield pattern, path
    for index, child in enumerate(pattern.children):
        yield from walk_pattern(child, f"{path}.{index}")


# ------------------------------------------------------------------ XML export


def pattern_to_xml(pattern: PatternNode) -> str:
    """Serialize a rule pattern as XML.

    This reproduces the paper's optimizer extension: "We have extended the
    database server with an API through which it returns the rule pattern
    tree for a rule in a XML format."
    """
    return ET.tostring(_pattern_element(pattern), encoding="unicode")


def _pattern_element(pattern: PatternNode) -> ET.Element:
    if pattern.is_generic:
        return ET.Element("Any")
    element = ET.Element("Operator", {"kind": pattern.kind.value})
    if pattern.join_kinds is not None:
        element.set(
            "joinKinds", ",".join(kind.value for kind in pattern.join_kinds)
        )
    for child in pattern.children:
        element.append(_pattern_element(child))
    return element


def pattern_from_xml(text: str) -> PatternNode:
    """Parse a pattern previously serialized by :func:`pattern_to_xml`."""
    return _pattern_from_element(ET.fromstring(text))


def _pattern_from_element(element: ET.Element) -> PatternNode:
    if element.tag == "Any":
        return ANY
    if element.tag != "Operator":
        raise ValueError(f"unexpected element {element.tag!r}")
    kind = OpKind(element.get("kind"))
    join_kinds = None
    raw = element.get("joinKinds")
    if raw:
        join_kinds = tuple(JoinKind(value) for value in raw.split(","))
    children = tuple(_pattern_from_element(child) for child in element)
    return PatternNode(kind, children, join_kinds)
