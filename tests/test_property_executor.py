"""Property-based executor tests: all join algorithms agree on random data.

Hash join, merge join and nested loops implement the same logical operator;
on any input (including NULL join keys, duplicates, empty sides) they must
produce identical bags.  Likewise hash vs stream aggregation.  The
columnar operators whose row order a ``Top`` can observe (top over sort,
group-by, distinct, the set operations) return the iterator's rows in the
iterator's order.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Catalog, ColumnDef, DataType, TableDef
from repro.engine import execute_plan
from repro.engine.columnar import Batch
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import Column, ColumnRef
from repro.logical.operators import JoinKind, SortKey, make_get
from repro.physical.operators import (
    HashAggregate,
    HashDistinct,
    HashExcept,
    HashIntersect,
    HashJoin,
    HashUnion,
    MergeJoin,
    NestedLoopsJoin,
    Sort,
    StreamAggregate,
    TableScan,
    Top,
)
from repro.storage.database import Database
from repro.testing.reference_executor import execute_plan_iterator

_LEFT = TableDef(
    name="l",
    columns=[
        ColumnDef("lk", DataType.INT),
        ColumnDef("lv", DataType.INT),
    ],
)
_RIGHT = TableDef(
    name="r",
    columns=[
        ColumnDef("rk", DataType.INT),
        ColumnDef("rv", DataType.INT),
    ],
)

_values = st.one_of(st.none(), st.integers(0, 4))
_rows = st.lists(st.tuples(_values, _values), max_size=8)


def _database(left_rows, right_rows):
    database = Database(Catalog([_LEFT, _RIGHT]))
    database.insert("l", left_rows)
    database.insert("r", right_rows)
    return database


def _scans(database):
    left_get = make_get(database.catalog.table("l"))
    right_get = make_get(database.catalog.table("r"))
    left = TableScan("l", left_get.columns, "l")
    right = TableScan("r", right_get.columns, "r")
    return left, right


def _bag(plan, database):
    return Counter(execute_plan(plan, database).rows)


class TestJoinAlgorithmAgreement:
    @given(left_rows=_rows, right_rows=_rows)
    @settings(max_examples=200, deadline=None)
    def test_inner_join_three_ways(self, left_rows, right_rows):
        database = _database(left_rows, right_rows)
        left, right = _scans(database)
        keys_l = (left.columns[0],)
        keys_r = (right.columns[0],)
        from repro.expr.expressions import Comparison, ComparisonOp

        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(left.columns[0]),
            ColumnRef(right.columns[0]),
        )
        nl = NestedLoopsJoin(JoinKind.INNER, left, right, predicate)
        hj = HashJoin(JoinKind.INNER, left, right, keys_l, keys_r)
        mj = MergeJoin(
            Sort(left, (SortKey(left.columns[0]),)),
            Sort(right, (SortKey(right.columns[0]),)),
            keys_l,
            keys_r,
        )
        assert _bag(nl, database) == _bag(hj, database) == _bag(mj, database)

    @given(left_rows=_rows, right_rows=_rows,
           kind=st.sampled_from([JoinKind.LEFT_OUTER, JoinKind.SEMI,
                                 JoinKind.ANTI]))
    @settings(max_examples=200, deadline=None)
    def test_hash_matches_nested_loops_all_kinds(
        self, left_rows, right_rows, kind
    ):
        database = _database(left_rows, right_rows)
        left, right = _scans(database)
        from repro.expr.expressions import Comparison, ComparisonOp

        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(left.columns[0]),
            ColumnRef(right.columns[0]),
        )
        nl = NestedLoopsJoin(kind, left, right, predicate)
        hj = HashJoin(
            kind, left, right, (left.columns[0],), (right.columns[0],)
        )
        assert _bag(nl, database) == _bag(hj, database)


class TestAggregationAgreement:
    @given(rows=_rows)
    @settings(max_examples=200, deadline=None)
    def test_hash_vs_stream_aggregate(self, rows):
        database = _database(rows, [])
        left, _ = _scans(database)
        out_count = Column("n", DataType.INT)
        out_sum = Column("s", DataType.INT)
        aggregates = (
            (out_count, AggregateCall(AggregateFunction.COUNT_STAR)),
            (out_sum, AggregateCall(
                AggregateFunction.SUM, ColumnRef(left.columns[1]))),
        )
        hashed = HashAggregate(left, (left.columns[0],), aggregates)
        streamed = StreamAggregate(
            Sort(left, (SortKey(left.columns[0]),)),
            (left.columns[0],),
            aggregates,
        )
        assert _bag(hashed, database) == _bag(streamed, database)

    @given(rows=_rows)
    @settings(max_examples=100, deadline=None)
    def test_scalar_aggregate_always_one_row(self, rows):
        database = _database(rows, [])
        left, _ = _scans(database)
        out = Column("n", DataType.INT)
        plan = HashAggregate(
            left, (), ((out, AggregateCall(AggregateFunction.COUNT_STAR)),)
        )
        result = execute_plan(plan, database)
        assert result.row_count == 1
        assert result.rows[0][0] == len(rows)


# ------------------------------------------------------- late materialisation

_cells = st.one_of(st.none(), st.integers(-3, 3))


@st.composite
def _batches(draw, max_rows=6):
    """A plain batch: 0-3 columns of 0-``max_rows`` cells, NULLs included."""
    length = draw(st.integers(0, max_rows))
    width = draw(st.integers(0, 3))
    data = [
        draw(st.lists(_cells, min_size=length, max_size=length))
        for _ in range(width)
    ]
    columns = tuple(Column(f"c{p}", DataType.INT) for p in range(width))
    return Batch(columns, data, length)


def _indices(draw, length, padded, max_size=8):
    """Row numbers with repeats, and -1 where a gather may pad."""
    if length == 0 and not padded:
        return []
    return draw(st.lists(
        st.integers(-1 if padded else 0, length - 1), max_size=max_size
    ))


def _read_rows(batch):
    """A batch read row by row: no columns means ``length`` empty rows."""
    if not batch.columns:
        return [()] * batch.length
    return list(zip(*batch.data))


def _eager_take(rows, indices, width):
    """The reference gather, by row: -1 is a NULL-extended row."""
    return [(None,) * width if i < 0 else rows[i] for i in indices]


class TestLateMaterialisation:
    """A batch gathered lazily reads as the rows an eager gather copies."""

    @given(data=st.data(), batch=_batches(), padded=st.booleans(),
           again_padded=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_take_and_take_again(self, data, batch, padded, again_padded):
        width = len(batch.columns)
        indices = _indices(data.draw, batch.length, padded)
        taken = batch.take(indices, padded)
        expected = _eager_take(_read_rows(batch), indices, width)
        assert taken.length == len(indices)
        assert _read_rows(taken) == expected
        # A second read finds the columns the first one built.
        assert _read_rows(taken) == expected

        again = _indices(data.draw, taken.length, again_padded)
        retaken = taken.take(again, again_padded)
        assert _read_rows(retaken) == _eager_take(expected, again, width)

    @given(data=st.data(), left=_batches(), right=_batches(),
           reread=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_beside_then_take(self, data, left, right, reread):
        """A join's shape: two gathers of one length side by side, then a
        gather of the pair (a filter above the join)."""
        pairs = data.draw(st.integers(0, 8))
        pairs_l = data.draw(st.lists(
            st.integers(0, max(left.length - 1, 0)),
            min_size=pairs if left.length else 0,
            max_size=pairs if left.length else 0,
        ))
        pairs_r = data.draw(st.lists(
            st.integers(-1, right.length - 1),
            min_size=len(pairs_l), max_size=len(pairs_l),
        ))
        joined = left.take(pairs_l).beside(right.take(pairs_r, padded=True))
        expected = [
            l_row + r_row
            for l_row, r_row in zip(
                _eager_take(_read_rows(left), pairs_l, len(left.columns)),
                _eager_take(_read_rows(right), pairs_r, len(right.columns)),
            )
        ]
        assert joined.columns == left.columns + right.columns
        assert joined.length == len(pairs_l)
        if reread:
            # Reading one column first must not change what the rest read.
            for position in range(len(joined.columns)):
                assert joined.data[position] == [
                    row[position] for row in expected
                ]
        assert _read_rows(joined) == expected

        keep = _indices(data.draw, joined.length, False)
        assert _read_rows(joined.take(keep)) == _eager_take(
            expected, keep, len(joined.columns)
        )


# ------------------------------------------- row order against the iterator

_keys = st.one_of(st.none(), st.integers(0, 2))
_keyed_rows = st.lists(st.tuples(_keys, _keys), max_size=12)


def _iterator_rows(plan, database):
    """The columnar rows, which must be the iterator's, in its order."""
    rows = execute_plan(plan, database).rows
    assert rows == execute_plan_iterator(plan, database).rows
    return rows


class TestOrderAgainstTheIterator:
    """Operators whose row order a ``Top`` can observe: few key values,
    so ties and NULL keys are the common case."""

    @given(
        rows=_keyed_rows,
        directions=st.lists(st.booleans(), min_size=1, max_size=2),
        count=st.one_of(st.integers(0, 14), st.sampled_from(["all", "more"])),
    )
    @settings(max_examples=300, deadline=None)
    def test_top_over_sort(self, rows, directions, count):
        database = _database(rows, [])
        left, _ = _scans(database)
        keys = tuple(
            SortKey(column, ascending)
            for column, ascending in zip(left.columns, directions)
        )
        if count == "all":
            count = len(rows)
        elif count == "more":
            count = len(rows) + 1
        full = _iterator_rows(Sort(left, keys), database)
        assert _iterator_rows(Top(Sort(left, keys), count), database) == (
            full[:count]
        )

    @given(rows=_keyed_rows, width=st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_group_by_and_distinct(self, rows, width):
        database = _database(rows, [])
        left, _ = _scans(database)
        group_by = left.columns[:width]
        aggregates = (
            (Column("n", DataType.INT),
             AggregateCall(AggregateFunction.COUNT_STAR)),
            (Column("c", DataType.INT),
             AggregateCall(AggregateFunction.COUNT, ColumnRef(left.columns[1]))),
        )
        _iterator_rows(HashAggregate(left, group_by, aggregates), database)
        _iterator_rows(HashDistinct(left), database)

    @given(left_rows=_keyed_rows, right_rows=_keyed_rows,
           width=st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_set_operations(self, left_rows, right_rows, width):
        database = _database(left_rows, right_rows)
        left, right = _scans(database)
        outputs = tuple(Column(f"k{p}", DataType.INT) for p in range(width))
        for operator in (HashUnion, HashIntersect, HashExcept):
            _iterator_rows(operator(
                left, right, outputs, left.columns[:width],
                right.columns[:width],
            ), database)
