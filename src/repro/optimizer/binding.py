"""Pattern-to-memo binding enumeration.

Given a memo expression (operator with group-reference children) and a rule
pattern, enumerate every way the pattern can bind to the memo: generic
pattern leaves stay as group references; non-generic pattern children are
expanded against each logical expression in the corresponding child group.
This is the Cascades "binding iterator".

Two shortcuts keep it from building what it would not change: a structured
child position recurses only into child-group expressions of the
sub-pattern's own kind, and a pattern whose children are all generic binds
to the memo expression itself, not to an equal copy of it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

from repro.logical.operators import GroupRef, LogicalOp
from repro.rules.framework import PatternNode


def bindings(
    op: LogicalOp, pattern: PatternNode, memo
) -> Iterator[LogicalOp]:
    """Yield all bindings of ``pattern`` rooted at memo expression ``op``.

    Yielded trees are operators whose children are either GroupRefs (at
    generic pattern positions) or deeper bound operators (at structured
    pattern positions).
    """
    if not pattern.matches_op(op):
        return
    if pattern.kind is None:
        yield op
        return
    children = op.children
    if len(pattern.children) != len(children):
        return

    options: List[object] = []
    structured = False
    for child, sub_pattern in zip(children, pattern.children):
        kind = sub_pattern.kind
        if kind is None:
            options.append((child,))
            continue
        structured = True
        assert isinstance(child, GroupRef), "memo expressions have GroupRef children"
        child_bindings = [
            binding
            for child_expr in memo.group(child.group_id).logical_exprs
            if child_expr.op.kind is kind
            for binding in bindings(child_expr.op, sub_pattern, memo)
        ]
        if not child_bindings:
            return
        options.append(child_bindings)

    if not structured:
        yield op
        return
    for combination in itertools.product(*options):
        yield op.with_children(combination)
