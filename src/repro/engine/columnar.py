"""Plan execution: the columnar (vectorized) executor every plan runs on.

:func:`execute_plan` materializes the result of a physical operator tree
against a :class:`~repro.storage.database.Database`.  Intermediate
results are :class:`Batch`es — struct-of-arrays with one Python list per
column — instead of lists of row tuples.  Expressions are compiled once
per operator into column-wise evaluators (:mod:`repro.expr.vector`), so
per-row interpreter dispatch collapses into list comprehensions and bulk
list ops.  Layouts are computed from each operator's *actual* children
(two equivalent plans may order join outputs differently).

Semantics contract: every handler reproduces the row-at-a-time reference
interpreter (:mod:`repro.testing.reference_executor`) *exactly*,
including row order.  Order matters even though SQL results are bags
because ``Top`` above an unsorted child makes the child's physical order
observable in the final result; the executor differential tests compare
the two on rows and on canonical bags.  NULL semantics follow SQL:
predicates keep rows only when TRUE; outer joins NULL-extend; grouping,
DISTINCT and set operations treat NULLs as equal; aggregates skip NULLs
(except COUNT(*)).

Table scans read :meth:`StoredTable.column_data`, a per-table columnar
snapshot that an insert extends rather than drops — so every plan
executed against a database shares one scan materialization per table.

Materialisation is late.  An operator that keeps, reorders or pairs rows
(filter, sort, distinct, top, every join, the set operations, aggregate
group keys) computes an index list and hands it to :meth:`Batch.take`,
which copies nothing: a column of the result is gathered the first time
an operator indexes it, and kept for later reads.  A join that outputs
three of its inputs' twenty-two columns gathers three.  A gather of a
gather reads, and so builds, the inner column it needs; index lists are
not composed.  Nothing lazy leaves :func:`execute_plan`: a
:class:`QueryResult` holds the built output column lists themselves, and
no row tuple is made unless a caller reads ``rows``.

Distinct rows and group ids come from C-level dict builds over the key
columns, in first-occurrence order.  A ``Sort`` under a ``Top`` sorts
only the rows that can make the cut (:func:`_exec_sort`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import partial
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.results import QueryResult
from repro.expr.aggregates import AggregateFunction
from repro.expr.expressions import TRUE, Column, referenced_columns
from repro.expr.vector import (
    compile_expr_vector,
    compile_selection_vector,
    layout_of,
)
from repro.logical.operators import JoinKind
from repro.obs.trace import NULL_TRACER, Tracer
from repro.physical.operators import (
    ComputeScalar,
    Concat,
    Filter,
    HashAggregate,
    HashDistinct,
    HashExcept,
    HashIntersect,
    HashJoin,
    HashUnion,
    MergeJoin,
    NestedApply,
    NestedLoopsJoin,
    PhysicalOp,
    PhysOpKind,
    Sort,
    StreamAggregate,
    TableScan,
    Top,
)
from repro.storage.database import Database

Columns = Tuple[Column, ...]

#: Value of the ``executor`` span arg and ``exec.executions`` label.
_EXECUTOR = "columnar"


class ExecutionError(Exception):
    """Raised when a plan cannot be executed."""


class Batch:
    """A struct-of-arrays result chunk: one Python list per column.

    ``data[p]`` is column ``p``, a list of ``length`` values, and indexing
    (or iterating, which indexes each position in turn) is the only way to
    read ``data``.  It is a plain list of columns (a scan, computed
    columns) or the lazy sequence behind :meth:`take` / :meth:`beside`,
    which builds a column the first time it is indexed and keeps it: a
    column nobody reads is never gathered.

    Column lists are shared freely between operators (a ``Filter`` that
    keeps everything passes its input through untouched), so they are
    immutable by convention — handlers build new lists, never mutate.
    """

    __slots__ = ("columns", "data", "length")

    def __init__(self, columns: Columns, data: Sequence[list], length: int):
        self.columns = columns
        self.data = data
        self.length = length

    def take(self, indices: Sequence[int], padded: bool = False) -> "Batch":
        """The rows at ``indices``, in that order, gathered when read.

        With ``padded``, index -1 stands for a NULL-extended row.
        """
        return Batch(
            self.columns, _Gather(self.data, indices, padded), len(indices)
        )

    def beside(self, right: "Batch") -> "Batch":
        """This batch's columns followed by ``right``'s (equal lengths)."""
        return Batch(
            self.columns + right.columns,
            _Beside(self.data, right.data),
            self.length,
        )


def _take(column: list, indices: Sequence[int]) -> list:
    return [column[i] for i in indices]


def _take_padded(column: list, indices: Sequence[int]) -> list:
    """Gather where index -1 means a NULL-extended (padded) slot."""
    return [None if i < 0 else column[i] for i in indices]


class _Gather:
    """``source``'s columns at ``indices``, each built on its first read."""

    __slots__ = ("source", "indices", "padded", "built")

    def __init__(self, source: Sequence[list], indices, padded: bool):
        self.source = source
        self.indices = indices
        self.padded = padded
        self.built: List[Optional[list]] = [None] * len(source)

    def __len__(self) -> int:
        return len(self.built)

    def __getitem__(self, position: int) -> list:
        column = self.built[position]
        if column is None:
            kernel = _take_padded if self.padded else _take
            column = kernel(self.source[position], self.indices)
            self.built[position] = column
        return column


class _Beside:
    """Two column sequences read as one, ``left``'s positions first."""

    __slots__ = ("left", "right", "split")

    def __init__(self, left: Sequence[list], right: Sequence[list]):
        self.left = left
        self.right = right
        self.split = len(left)

    def __len__(self) -> int:
        return self.split + len(self.right)

    def __getitem__(self, position: int) -> list:
        if position < self.split:
            return self.left[position]
        return self.right[position - self.split]


class _Context:
    __slots__ = ("database", "tracer", "metrics", "gathers")

    def __init__(self, database: Database, tracer: Tracer, metrics):
        self.database = database
        self.tracer = tracer
        self.metrics = metrics
        #: Every gather of this execution, for the ``exec.columns_*``
        #: counters; not kept when there is no registry to fold them into.
        self.gathers: Optional[List[_Gather]] = (
            None if metrics is None else []
        )

    def take(
        self, batch: Batch, indices: Sequence[int], padded: bool = False
    ) -> Batch:
        """:meth:`Batch.take`, remembered for the column counters."""
        taken = batch.take(indices, padded)
        if self.gathers is not None:
            self.gathers.append(taken.data)
        return taken


def execute_plan(
    plan: PhysicalOp,
    database: Database,
    output_columns: Optional[Columns] = None,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics=None,
) -> QueryResult:
    """Execute ``plan``; optionally project to ``output_columns`` order."""
    # Note: no plan signature in the span args — signatures embed column
    # ids, which differ across re-parses of the same SQL, and trace JSON
    # must stay byte-identical across runs.
    with tracer.span(
        "exec.plan",
        cat="exec",
        executor=_EXECUTOR,
        operators=sum(1 for _ in plan.walk()) if tracer.enabled else 0,
    ) as span:
        ctx = _Context(database, tracer, metrics)
        batch = _execute_batch(plan, ctx)
        if output_columns is not None:
            layout = layout_of(batch.columns)
            try:
                positions = [layout[c.cid] for c in output_columns]
            except KeyError as exc:
                # Same error type/message as QueryResult.projected.
                raise ValueError(f"column not in result: {exc}") from None
            columns = tuple(output_columns)
        else:
            columns = batch.columns
            positions = range(len(columns))
        # Built column lists: nothing lazy leaves this function, so the
        # counters are final once the output columns exist.
        data = [batch.data[p] for p in positions]
        if ctx.gathers:
            built = sum(
                len(gather.built) - gather.built.count(None)
                for gather in ctx.gathers
            )
            total = sum(len(gather.built) for gather in ctx.gathers)
            metrics.counter("exec.columns_gathered").inc(built)
            metrics.counter("exec.columns_skipped").inc(total - built)
        span.annotate(rows_out=batch.length)
    if metrics is not None:
        metrics.counter("exec.executions", executor=_EXECUTOR).inc()
        metrics.counter("exec.rows").inc(batch.length)
    return QueryResult(columns, data, batch.length)


def _execute_batch(
    op: PhysicalOp, ctx: _Context, limit: Optional[int] = None
) -> Batch:
    """``op``'s output.  ``limit``, from a ``Top`` parent, says that only
    the first ``limit`` rows of it are read: a ``Sort`` then sorts only
    the rows that can be among them (:func:`_exec_sort`)."""
    handler = _HANDLERS.get(op.kind)
    if handler is None:
        raise ExecutionError(f"no columnar executor for {op.kind}")
    child_limit = op.count if op.kind is PhysOpKind.TOP else None
    inputs = [_execute_batch(child, ctx, child_limit) for child in op.children]
    if limit is not None and op.kind is PhysOpKind.SORT:
        handler = partial(_exec_sort, limit=limit)
    tracer = ctx.tracer
    if not tracer.enabled:
        return handler(op, inputs, ctx)
    with tracer.span(
        "exec.operator",
        cat="exec",
        op=op.kind.name,
        rows_in=sum(b.length for b in inputs),
        batches=max(1, len(inputs)),
    ) as span:
        batch = handler(op, inputs, ctx)
        span.annotate(rows_out=batch.length)
    return batch


# ------------------------------------------------------------------- leaves


def _exec_table_scan(op: TableScan, inputs, ctx: _Context) -> Batch:
    table = ctx.database.table(op.table)
    if ctx.metrics is not None and table.has_column_cache:
        ctx.metrics.counter("exec.scan_cache_hits").inc()
    return Batch(op.columns, table.column_data(), len(table))


# ------------------------------------------------------------------ unary


def _exec_filter(op: Filter, inputs, ctx) -> Batch:
    (child,) = inputs
    select = compile_selection_vector(op.predicate, layout_of(child.columns))
    sel = select(child.data, child.length)
    if len(sel) == child.length:
        return child
    return ctx.take(child, sel)


def _exec_compute_scalar(op: ComputeScalar, inputs, ctx) -> Batch:
    (child,) = inputs
    layout = layout_of(child.columns)
    data = [
        compile_expr_vector(expr, layout)(child.data, child.length)
        for _, expr in op.outputs
    ]
    return Batch(op.output_columns, data, child.length)


def _ranks(values) -> list:
    """Sort ranks: NULL below every value."""
    return [(0, 0) if v is None else (1, v) for v in values]


def _exec_sort(op: Sort, inputs, ctx, limit: Optional[int] = None) -> Batch:
    """Rows in key order; with ``limit``, only the rows that can be among
    the first ``limit``, in key order.

    Those candidates are the rows whose first-key rank is at least as good
    as the ``limit``-th best one (ties included): any other row has
    ``limit`` rows ahead of it.  Sorting them, in input order, by the same
    stable passes orders them exactly as the full sort does.
    """
    (child,) = inputs
    layout = layout_of(child.columns)
    candidates: Optional[List[int]] = None
    if limit is not None and limit < child.length and op.keys:
        first = op.keys[0]
        ranks = _ranks(child.data[layout[first.column.cid]])
        if not limit:
            candidates = []
        elif first.ascending:
            cut = heapq.nsmallest(limit, ranks)[-1]
            candidates = [i for i, rank in enumerate(ranks) if rank <= cut]
        else:
            cut = heapq.nlargest(limit, ranks)[-1]
            candidates = [i for i, rank in enumerate(ranks) if rank >= cut]
    # Same stable multi-pass scheme as the reference interpreter, on an index
    # permutation: keys last-to-first, NULLs first ascending.  The sort
    # key per pass is a precomputed list of rank tuples, so key
    # construction runs once per row instead of once per comparison
    # closure call.
    order = list(range(child.length if candidates is None else len(candidates)))
    for key in reversed(op.keys):
        column = child.data[layout[key.column.cid]]
        if candidates is not None:
            column = _take(column, candidates)
        ranks = _ranks(column)
        order.sort(key=ranks.__getitem__, reverse=not key.ascending)
    if candidates is not None:
        order = _take(candidates, order)
    return ctx.take(child, order)


def _exec_hash_distinct(op: HashDistinct, inputs, ctx) -> Batch:
    (child,) = inputs
    return _distinct(child, ctx)


def _row_keys(columns: List[list], length: int):
    """Per-row keys over ``columns`` (lists or iterators): a single
    column's values are its keys, several are zipped into tuples."""
    if len(columns) == 1:
        return columns[0]
    if not columns:
        return repeat((), length)
    return zip(*columns)


def _first_rows(columns: List[list], length: int) -> Dict[object, int]:
    """Each distinct row's key (see :func:`_row_keys`) to its first index.

    One C-level dict build over the rows walked backwards: a key's last
    assignment is its first row.  NULLs are equal to each other here, as
    in a set of row tuples.
    """
    backwards = [reversed(column) for column in columns]
    return dict(zip(_row_keys(backwards, length), range(length - 1, -1, -1)))


def _distinct(batch: Batch, ctx) -> Batch:
    """The first occurrence of each distinct row, in row order."""
    length = batch.length
    first = _first_rows(
        [batch.data[p] for p in range(len(batch.columns))], length
    )
    if len(first) == length:
        return batch
    return ctx.take(batch, sorted(first.values()))


def _exec_top(op: Top, inputs, ctx) -> Batch:
    (child,) = inputs
    if child.length <= op.count:
        return child
    return ctx.take(child, range(op.count))


# ------------------------------------------------------------------- joins


def _join_keys(batch: Batch, key_columns) -> list:
    """Per-row join keys; ``None`` entries mark rows with a NULL key part.

    Single-column keys use the value itself (``None`` is then naturally
    the NULL marker); multi-column keys are tuples, replaced by ``None``
    when any part is NULL — equality joins drop those rows.
    """
    layout = layout_of(batch.columns)
    positions = [layout[c.cid] for c in key_columns]
    if len(positions) == 1:
        return batch.data[positions[0]]
    key_data = [batch.data[p] for p in positions]
    return [
        None if None in key else key
        for key in zip(*key_data)
    ]


def _gather_join(
    ctx,
    left: Batch,
    right: Batch,
    pairs_l: List[int],
    pairs_r: List[int],
    padded: bool = False,
) -> Batch:
    """Left rows ``pairs_l`` beside right rows ``pairs_r``.

    The combined batch of a join: its output, and before that the candidate
    pairs its residual is evaluated on.  With ``padded``, -1 in ``pairs_r``
    NULL-pads the right side.
    """
    return ctx.take(left, pairs_l).beside(ctx.take(right, pairs_r, padded))


def _passing_pairs(
    ctx,
    residual,
    left: Batch,
    right: Batch,
    pairs_l: List[int],
    pairs_r: List[int],
) -> Tuple[List[int], List[int]]:
    """The candidate pairs on which ``residual`` is TRUE, in their order.

    It is evaluated on the pairs' combined batch, which gathers the
    columns it names and no others.
    """
    candidates = _gather_join(ctx, left, right, pairs_l, pairs_r)
    select = compile_selection_vector(
        residual, layout_of(candidates.columns)
    )
    sel = select(candidates.data, candidates.length)
    return _take(pairs_l, sel), _take(pairs_r, sel)


def _row_matcher(predicate, left: Batch, right: Batch):
    """``matches(i)``: indices of the right rows joining with left row ``i``.

    The predicate sees left row ``i`` repeated beside the whole right side.
    Only the columns it references exist in that view; the other positions
    share a ``None`` placeholder.
    """
    nright = right.length
    if predicate == TRUE:
        all_indices = list(range(nright))
        return lambda i: all_indices

    combined = left.columns + right.columns
    select = compile_selection_vector(predicate, layout_of(combined))
    read = referenced_columns(predicate)
    cols: List[Optional[list]] = [None] * len(combined)
    nleft = len(left.columns)
    for p, column in enumerate(right.columns):
        if column in read:
            cols[nleft + p] = right.data[p]
    left_read = [
        (p, left.data[p])
        for p, column in enumerate(left.columns)
        if column in read
    ]

    def matches(i: int) -> List[int]:
        for p, column in left_read:
            cols[p] = [column[i]] * nright
        return select(cols, nright)

    return matches


def _exec_nested_loops(op: NestedLoopsJoin, inputs, ctx) -> Batch:
    left, right = inputs
    kind = op.join_kind
    match_indices = _row_matcher(op.predicate, left, right)

    pairs_l: List[int] = []
    pairs_r: List[int] = []
    if kind in (JoinKind.INNER, JoinKind.CROSS):
        for i in range(left.length):
            matches = match_indices(i)
            pairs_l.extend([i] * len(matches))
            pairs_r.extend(matches)
        return _gather_join(ctx, left, right, pairs_l, pairs_r)
    if kind is JoinKind.LEFT_OUTER:
        for i in range(left.length):
            matches = match_indices(i)
            if matches:
                pairs_l.extend([i] * len(matches))
                pairs_r.extend(matches)
            else:
                pairs_l.append(i)
                pairs_r.append(-1)
        return _gather_join(ctx, left, right, pairs_l, pairs_r, padded=True)
    if kind in (JoinKind.SEMI, JoinKind.ANTI):
        want_match = kind is JoinKind.SEMI
        keep = [
            i
            for i in range(left.length)
            if bool(match_indices(i)) == want_match
        ]
        return ctx.take(left, keep)
    raise ExecutionError(f"unsupported join kind {kind}")


def _exec_nested_apply(op: NestedApply, inputs, ctx) -> Batch:
    left, right = inputs
    match_indices = _row_matcher(op.predicate, left, right)
    want_match = op.apply_kind is JoinKind.SEMI
    keep = [
        i
        for i in range(left.length)
        if bool(match_indices(i)) == want_match
    ]
    return ctx.take(left, keep)


def _probe(left_keys: list, right_keys: list) -> Tuple[List[int], List[int]]:
    """The equal-key pairs ``(left rows, right rows)`` of a hash join.

    Pair order: probe-side (left) major, build-insertion order within a
    key.  A ``None`` key (a NULL key part) is never in the table, so NULLs
    match nothing on either side.
    """
    # One entry per key, its last row: the whole table when every build
    # key is unique, and then no Python loop has run.
    last = dict(zip(right_keys, range(len(right_keys))))
    nulls = right_keys.count(None) if None in last else 0
    last.pop(None, None)
    if len(last) == len(right_keys) - nulls:
        found = list(map(last.get, left_keys))
        return (
            [i for i, j in enumerate(found) if j is not None],
            [j for j in found if j is not None],
        )
    table: Dict[object, List[int]] = {}
    for j, key in enumerate(right_keys):
        if key is not None:
            table.setdefault(key, []).append(j)
    found = list(map(table.get, left_keys))
    return (
        [i for i, matches in enumerate(found) if matches for _ in matches],
        [j for matches in found if matches for j in matches],
    )


def _exec_hash_join(op: HashJoin, inputs, ctx) -> Batch:
    left, right = inputs
    kind = op.join_kind
    if kind not in (
        JoinKind.INNER, JoinKind.LEFT_OUTER, JoinKind.SEMI, JoinKind.ANTI
    ):
        raise ExecutionError(f"hash join does not support {kind}")

    left_keys = _join_keys(left, op.left_keys)
    right_keys = _join_keys(right, op.right_keys)
    want_match = kind is JoinKind.SEMI
    if op.residual == TRUE and kind in (JoinKind.SEMI, JoinKind.ANTI):
        # Only whether a key occurs on the build side matters.
        build = set(right_keys)
        build.discard(None)
        keep = [
            i
            for i, key in enumerate(left_keys)
            if (key in build) == want_match
        ]
        return ctx.take(left, keep)

    pairs_l, pairs_r = _probe(left_keys, right_keys)
    if op.residual != TRUE:
        pairs_l, pairs_r = _passing_pairs(
            ctx, op.residual, left, right, pairs_l, pairs_r
        )
    if kind is JoinKind.INNER:
        return _gather_join(ctx, left, right, pairs_l, pairs_r)

    # The other kinds ask of each left row whether any pair survived.
    matched = set(pairs_l)
    if kind is JoinKind.LEFT_OUTER:
        unmatched = [i for i in range(left.length) if i not in matched]
        if unmatched:
            # Each unmatched row joins the padded slot, in its place among
            # the pairs: both lists ascend in the left row and the sort is
            # stable, so this is a merge that keeps the pair order.
            pairs_l = pairs_l + unmatched
            pairs_r = pairs_r + [-1] * len(unmatched)
            order = sorted(range(len(pairs_l)), key=pairs_l.__getitem__)
            pairs_l = _take(pairs_l, order)
            pairs_r = _take(pairs_r, order)
        return _gather_join(ctx, left, right, pairs_l, pairs_r, padded=True)

    keep = [i for i in range(left.length) if (i in matched) == want_match]
    return ctx.take(left, keep)


def _merge_keys(batch: Batch, key_columns) -> List[Tuple]:
    """Key tuples for merge join (always tuples: they are compared with <)."""
    layout = layout_of(batch.columns)
    positions = [layout[c.cid] for c in key_columns]
    key_data = [batch.data[p] for p in positions]
    if not key_data:
        return [()] * batch.length
    return list(zip(*key_data))


def _exec_merge_join(op: MergeJoin, inputs, ctx) -> Batch:
    left, right = inputs

    left_keys = _merge_keys(left, op.left_keys)
    right_keys = _merge_keys(right, op.right_keys)

    # Rows with NULL keys cannot match an equality; drop them up front.
    left_clean = [
        i for i, key in enumerate(left_keys) if None not in key
    ]
    right_clean = [
        j for j, key in enumerate(right_keys) if None not in key
    ]

    pairs_l: List[int] = []
    pairs_r: List[int] = []
    i = j = 0
    nl, nr = len(left_clean), len(right_clean)
    while i < nl and j < nr:
        lkey = left_keys[left_clean[i]]
        rkey = right_keys[right_clean[j]]
        if lkey < rkey:
            i += 1
        elif lkey > rkey:
            j += 1
        else:
            i_end = i
            while i_end < nl and left_keys[left_clean[i_end]] == lkey:
                i_end += 1
            j_end = j
            while j_end < nr and right_keys[right_clean[j_end]] == rkey:
                j_end += 1
            for li in left_clean[i:i_end]:
                for rj in right_clean[j:j_end]:
                    pairs_l.append(li)
                    pairs_r.append(rj)
            i, j = i_end, j_end

    if op.residual != TRUE:
        pairs_l, pairs_r = _passing_pairs(
            ctx, op.residual, left, right, pairs_l, pairs_r
        )
    return _gather_join(ctx, left, right, pairs_l, pairs_r)


# -------------------------------------------------------------- aggregation


def _vector_aggregate(
    function: AggregateFunction,
    group_ids: List[int],
    values: Optional[list],
    group_sizes: List[int],
) -> list:
    """Per-group results of one aggregate: the engine's one aggregator.

    ``group_sizes`` holds each group's row count, which is ``COUNT(*)``.
    An empty group gives SQL's empty-input value: 0 for the COUNTs, NULL
    otherwise.  The row-at-a-time ``Accumulator`` in
    :mod:`repro.testing.reference_executor` is its test oracle.
    """
    n_groups = len(group_sizes)
    if function is AggregateFunction.COUNT_STAR:
        return group_sizes
    if function is AggregateFunction.COUNT:
        counts = [0] * n_groups
        for g, v in zip(group_ids, values):
            if v is not None:
                counts[g] += 1
        return counts
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        sums = [0] * n_groups
        counts = [0] * n_groups
        for g, v in zip(group_ids, values):
            if v is not None:
                sums[g] += v
                counts[g] += 1
        if function is AggregateFunction.SUM:
            return [s if c else None for s, c in zip(sums, counts)]
        return [s / c if c else None for s, c in zip(sums, counts)]
    if function is AggregateFunction.MIN:
        best: list = [None] * n_groups
        for g, v in zip(group_ids, values):
            if v is not None and (best[g] is None or v < best[g]):
                best[g] = v
        return best
    best = [None] * n_groups
    for g, v in zip(group_ids, values):
        if v is not None and (best[g] is None or v > best[g]):
            best[g] = v
    return best


def _aggregate_outputs(
    op, child: Batch, group_ids: List[int], group_sizes: List[int]
) -> List[list]:
    """Aggregate columns for either aggregate flavour."""
    layout = layout_of(child.columns)
    out: List[list] = []
    for _, call in op.aggregates:
        if call.argument is None:  # COUNT(*)
            values = None
        else:
            values = compile_expr_vector(call.argument, layout)(
                child.data, child.length
            )
        out.append(
            _vector_aggregate(call.function, group_ids, values, group_sizes)
        )
    return out


def _empty_scalar_aggregate(op) -> Batch:
    # Scalar aggregate over empty input: one group of 0 rows.
    data = [
        _vector_aggregate(call.function, [], [], [0])
        for _, call in op.aggregates
    ]
    return Batch(op.output_columns, data, 1)


def _exec_hash_aggregate(op: HashAggregate, inputs, ctx) -> Batch:
    (child,) = inputs
    layout = layout_of(child.columns)
    group_positions = [layout[c.cid] for c in op.group_by]

    if not group_positions:
        if not child.length:
            return _empty_scalar_aggregate(op)
        group_ids = [0] * child.length
        agg_data = _aggregate_outputs(op, child, group_ids, [child.length])
        return Batch(op.output_columns, agg_data, 1)

    # One C-level count: the counter's keys are the groups in
    # first-occurrence order (each the first row's key object), its
    # values their row counts.  Groups are numbered in that order.
    key_data = [child.data[p] for p in group_positions]
    groups = Counter(_row_keys(key_data, child.length))
    gid_of = dict(zip(groups, range(len(groups))))
    group_ids = list(map(gid_of.__getitem__, _row_keys(key_data, child.length)))
    if len(key_data) == 1:
        group_data = [list(groups)]
    else:
        group_data = [list(column) for column in zip(*groups)] or [
            [] for _ in key_data
        ]
    agg_data = _aggregate_outputs(
        op, child, group_ids, list(groups.values())
    )
    return Batch(op.output_columns, group_data + agg_data, len(groups))


def _exec_stream_aggregate(op: StreamAggregate, inputs, ctx) -> Batch:
    (child,) = inputs
    layout = layout_of(child.columns)
    # Run detection uses the canonical (sorted-by-cid) requirement order;
    # output emits group columns in declared order — same split as the
    # reference interpreter.  Runs get fresh group ids even if a key value
    # recurs later (stream aggregation groups by runs, not globally).
    ordered_group = sorted(op.group_by, key=lambda c: c.cid)
    group_positions = [layout[c.cid] for c in ordered_group]
    declared_positions = [layout[c.cid] for c in op.group_by]

    group_ids: List[int] = []
    first_rows: List[int] = []
    if group_positions:
        key_data = [child.data[p] for p in group_positions]
        previous: object = None
        for i, key in enumerate(zip(*key_data)):
            if not first_rows or key != previous:
                first_rows.append(i)
                previous = key
            group_ids.append(len(first_rows) - 1)
    else:
        group_ids = [0] * child.length
        first_rows = [0] if child.length else []
    n_groups = len(first_rows)

    if not n_groups and not op.group_by:
        return _empty_scalar_aggregate(op)

    firsts = ctx.take(child, first_rows)
    group_data = [firsts.data[p] for p in declared_positions]
    counts = [
        end - start
        for start, end in zip(first_rows, first_rows[1:] + [child.length])
    ]
    agg_data = _aggregate_outputs(op, child, group_ids, counts)
    return Batch(op.output_columns, group_data + agg_data, n_groups)


# ------------------------------------------------------------------ set ops


def _aligned_data(op, side: str, batch: Batch) -> List[list]:
    """Realign one branch's columns to the operator's output order.

    A pure column permutation — no row materialization, unlike the
    reference interpreter's per-row tuple rebuild.
    """
    branch_columns = op.left_columns if side == "left" else op.right_columns
    layout = layout_of(batch.columns)
    return [batch.data[layout[c.cid]] for c in branch_columns]


def _exec_concat(op: Concat, inputs, ctx) -> Batch:
    left, right = inputs
    left_data = _aligned_data(op, "left", left)
    right_data = _aligned_data(op, "right", right)
    data = [lcol + rcol for lcol, rcol in zip(left_data, right_data)]
    return Batch(op.output_columns, data, left.length + right.length)


def _exec_hash_union(op: HashUnion, inputs, ctx) -> Batch:
    return _distinct(_exec_concat(op, inputs, ctx), ctx)


def _filter_distinct(op, inputs, ctx, in_right: bool) -> Batch:
    """The first occurrence of each distinct left row that is (INTERSECT)
    or is not (EXCEPT) among the right rows, in row order."""
    left, right = inputs
    left_data = _aligned_data(op, "left", left)
    right_keys = set(
        _row_keys(_aligned_data(op, "right", right), right.length)
    )
    keep = sorted(
        i
        for key, i in _first_rows(left_data, left.length).items()
        if (key in right_keys) == in_right
    )
    return ctx.take(Batch(op.output_columns, left_data, left.length), keep)


def _exec_hash_intersect(op: HashIntersect, inputs, ctx) -> Batch:
    return _filter_distinct(op, inputs, ctx, in_right=True)


def _exec_hash_except(op: HashExcept, inputs, ctx) -> Batch:
    return _filter_distinct(op, inputs, ctx, in_right=False)


_HANDLERS = {
    PhysOpKind.TABLE_SCAN: _exec_table_scan,
    PhysOpKind.FILTER: _exec_filter,
    PhysOpKind.COMPUTE_SCALAR: _exec_compute_scalar,
    PhysOpKind.NESTED_LOOPS_JOIN: _exec_nested_loops,
    PhysOpKind.NESTED_APPLY: _exec_nested_apply,
    PhysOpKind.HASH_JOIN: _exec_hash_join,
    PhysOpKind.MERGE_JOIN: _exec_merge_join,
    PhysOpKind.HASH_AGGREGATE: _exec_hash_aggregate,
    PhysOpKind.STREAM_AGGREGATE: _exec_stream_aggregate,
    PhysOpKind.SORT: _exec_sort,
    PhysOpKind.CONCAT: _exec_concat,
    PhysOpKind.HASH_UNION: _exec_hash_union,
    PhysOpKind.HASH_DISTINCT: _exec_hash_distinct,
    PhysOpKind.HASH_INTERSECT: _exec_hash_intersect,
    PhysOpKind.HASH_EXCEPT: _exec_hash_except,
    PhysOpKind.TOP: _exec_top,
}
