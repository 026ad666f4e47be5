"""Pattern-to-memo binding, compiled once per pattern.

Given a memo expression (operator with group-reference children) and a rule
pattern, a *binding* is one way the pattern can bind to the memo: generic
pattern leaves stay as group references; non-generic pattern children are
expanded against each logical expression in the corresponding child group.
This is the Cascades "binding iterator", specialised per pattern:
:func:`compile_pattern` turns a pattern into a matcher
``match(op, memo) -> sequence of bindings`` once per process, and the
engine's rule index keeps one matcher per active rule, so an attempt asks
no question about the pattern's shape that was already answered when it
was compiled.

A matcher checks kind, join kind and arity itself; at a structured child
position it scans the child group only for expressions of the
sub-pattern's kind; a pattern whose children are all generic binds to the
memo expression itself, not to an equal copy of it.  Every binding is
built before the first is returned, in child-expression order and
``itertools.product`` order, from memo state read at call time.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

from repro.logical.operators import OPERATOR_CLASSES, LogicalOp
from repro.rules.framework import PatternNode

#: ``match(op, memo)``: every binding of one compiled pattern rooted at
#: memo expression ``op``, empty when there is none.
Matcher = Callable[[LogicalOp, object], Sequence[LogicalOp]]


def _bind_any(op: LogicalOp, memo) -> Sequence[LogicalOp]:
    return (op,)


@functools.lru_cache(maxsize=None)
def compile_pattern(pattern: PatternNode) -> Matcher:
    """The matcher of ``pattern``, compiled once per process.

    A pattern is a frozen value and its matcher a pure function of it, so
    every optimizer shares one matcher per distinct pattern: a plan service
    builds an optimizer per config, and each would otherwise allocate its
    own.  Sub-patterns are compiled through this same module-level name.
    """
    kind = pattern.kind
    if kind is None:
        return _bind_any
    join_kinds = pattern.join_kinds
    restricted = (
        OPERATOR_CLASSES[kind].join_kind_field
        if join_kinds is not None
        else None
    )
    arity = len(pattern.children)
    structured = tuple(
        (position, sub.kind, compile_pattern(sub))
        for position, sub in enumerate(pattern.children)
        if sub.kind is not None
    )

    def match(op: LogicalOp, memo) -> Sequence[LogicalOp]:
        if op.kind is not kind:
            return ()
        if restricted is not None and getattr(op, restricted) not in join_kinds:
            return ()
        children = op.children
        if len(children) != arity:
            return ()
        if not structured:
            return (op,)
        options = [(child,) for child in children]
        for position, sub_kind, sub_match in structured:
            child_bindings = [
                binding
                for child_expr in memo.groups[
                    children[position].group_id
                ].logical_exprs
                if child_expr.op.kind is sub_kind
                for binding in sub_match(child_expr.op, memo)
            ]
            if not child_bindings:
                return ()
            options[position] = child_bindings
        return [
            op.with_children(combination)
            for combination in itertools.product(*options)
        ]

    return match


def bindings(op: LogicalOp, pattern: PatternNode, memo) -> Sequence[LogicalOp]:
    """All bindings of ``pattern`` rooted at memo expression ``op``.

    Compiles ``pattern`` and calls its matcher: an entry point for tests
    and one-off callers.  The optimizer keeps each rule's matcher in its
    rule index.
    """
    return compile_pattern(pattern)(op, memo)
