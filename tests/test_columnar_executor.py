"""Unit tests for the columnar execution layer (docs/EXECUTION.md).

Covers the pieces the differential suites exercise only indirectly: the
NULLS-FIRST ordering contract, bag digests, the table column-snapshot
cache, and ``PlanService.execute_many`` (coalescing, result cache,
per-item error capture).
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Catalog, ColumnDef, DataType, TableDef
from repro.engine import (
    BagDigest,
    ExecutionError,
    QueryResult,
    digest_rows,
    execute_plan,
)
from repro.engine import digest as digest_module
from repro.engine.columnar import Batch
from repro.expr.expressions import (
    TRUE,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.logical.operators import JoinKind, SortKey, make_get
from repro.obs import MetricsRegistry, RecordingTracer
from repro.optimizer.engine import Optimizer
from repro.physical.operators import (
    ComputeScalar,
    HashAggregate,
    HashDistinct,
    HashExcept,
    HashIntersect,
    HashJoin,
    Sort,
    TableScan,
    Top,
)
from repro.rules.registry import default_registry
from repro.sql.binder import sql_to_tree
from repro.storage.database import Database
from repro.testing.reference_executor import execute_plan_iterator

EXECUTORS = [execute_plan, execute_plan_iterator]


@pytest.fixture()
def sort_db():
    table = TableDef(
        name="t",
        columns=[
            ColumnDef("a", DataType.INT, nullable=False),
            ColumnDef("b", DataType.INT, nullable=True),
        ],
        primary_key=("a",),
    )
    database = Database(Catalog([table]))
    database.insert("t", [(1, 3), (2, None), (3, 1), (4, None), (5, 2)])
    return database


def _plan_for(sql, database):
    registry = default_registry()
    optimizer = Optimizer(
        database.catalog, database.stats_repository(), registry
    )
    result = optimizer.optimize(sql_to_tree(sql, database.catalog))
    return result.plan, result.output_columns


# --------------------------------------------------- NULLS-FIRST ordering


class TestNullOrdering:
    """NULL sorts as the smallest value: first ascending, last
    descending — on both executors, pinned exactly."""

    @pytest.mark.parametrize("execute", EXECUTORS)
    def test_nulls_first_ascending(self, sort_db, execute):
        plan, outputs = _plan_for("SELECT a, b FROM t ORDER BY b, a", sort_db)
        result = execute(plan, sort_db, outputs)
        assert result.rows == [
            (2, None), (4, None), (3, 1), (5, 2), (1, 3),
        ]

    @pytest.mark.parametrize("execute", EXECUTORS)
    def test_nulls_last_descending(self, sort_db, execute):
        plan, outputs = _plan_for(
            "SELECT a, b FROM t ORDER BY b DESC, a", sort_db
        )
        result = execute(plan, sort_db, outputs)
        assert result.rows == [
            (1, 3), (5, 2), (3, 1), (2, None), (4, None),
        ]


# ------------------------------------------------------------ bag digest


class TestBagDigest:
    def test_empty(self):
        assert digest_rows([]) == digest_rows(iter(())) == BagDigest(0, 0, 0)

    def test_order_insensitive(self):
        a = [(1, "x"), (2, "y"), (2, "y")]
        assert digest_rows(a) == digest_rows(list(reversed(a)))

    def test_multiplicity_sensitive(self):
        assert digest_rows([(1,), (2,)]) != digest_rows([(1,), (2,), (2,)])
        assert digest_rows([(1,), (1,), (2,)]) != digest_rows(
            [(1,), (2,), (2,)]
        )

    def test_canonical_float_equivalence(self):
        assert digest_rows([(1.0000000001, -0.0)]) == digest_rows(
            [(1.0, 0.0)]
        )
        assert digest_rows([(1,)]) == digest_rows([(1.0,)])
        assert digest_rows([(0.123456789,)]) != digest_rows([(0.1234,)])

    def test_float_free_rows_digest_as_they_are(self):
        rows = [(1, "x", None), (2, "y", 3)]
        assert digest_rows(rows) == digest_rows([(1.0, "x", None), (2, "y", 3.0)])
        assert isinstance(digest_rows(rows), BagDigest)

    def test_minus_one_is_not_minus_two(self):
        # CPython: hash(-1) == hash(-2), so the row hashes collide.
        assert hash((-1, "a")) == hash((-2, "a"))
        assert digest_rows([(-1, "a")]) != digest_rows([(-2, "a")])
        assert digest_rows([(-1, -2)]) != digest_rows([(-2, -1)])
        assert digest_rows([(-1.0, "a")]) != digest_rows([(-2.0, "a")])
        # ... while numerically equal cells still share one token.
        assert digest_rows([(-1,)]) == digest_rows([(-1.0,)])
        assert digest_rows([(3, -1, None)]) == digest_rows([(3.0, -1.0, None)])

    def test_empty_string_is_not_zero(self):
        # hash("") == hash(0) == hash(False) == hash(0.0), so these collide.
        assert hash(("", 1)) == hash((0, 1)) == hash((False, 1))
        for zero in (0, False, 0.0, -0.0):
            assert digest_rows([("", 1)]) != digest_rows([(zero, 1)])
        assert digest_rows([("", -1)]) != digest_rows([(0, -2)])
        assert digest_rows([("", -1), (0, "")]) == digest_rows(
            [(0, ""), ("", -1.0)]
        )

    def test_minus_one_fold_applies_after_rounding(self):
        assert digest_rows([(-0.9999999, "a")]) == digest_rows([(-1, "a")])
        assert digest_rows([(-0.9999999, "a")]) != digest_rows([(-2, "a")])
        rows = [(-1, "x"), (2, -1.0), (-2, "x")]
        assert digest_rows(rows) == digest_rows([(-1.0, "x"), (2, -1), (-2.0, "x")])
        assert digest_rows(rows) != digest_rows([(-2, "x"), (2, -1.0), (-2, "x")])

    def test_each_distinct_float_of_a_chunk_is_rounded_once(self, monkeypatch):
        """The kernel's cost model: a column whose floats repeat pays one
        ``canonical_value`` per distinct value per chunk, an all-distinct
        column one per cell (no map), a float-free column none."""
        canonical_value, calls = digest_module.canonical_value, []

        def spy(value):
            calls.append(value)
            return canonical_value(value)

        monkeypatch.setattr(digest_module, "canonical_value", spy)
        rows, distinct = 10_000, 50
        chunks = -(-rows // digest_module._CHUNK)
        digest_rows([(i % distinct + 0.25, i) for i in range(rows)])
        assert distinct <= len(calls) <= distinct * chunks
        del calls[:]
        digest_rows([(i + 0.25, "x") for i in range(rows)])
        assert sorted(calls) == [i + 0.25 for i in range(rows)]
        del calls[:]
        digest_rows([(i, "x", None) for i in range(rows)])
        assert calls == []


# ----------------------------------------- table snapshots / fingerprints


class TestTableSnapshots:
    def test_insert_extends_the_snapshot_into_new_lists(self, sort_db):
        table = sort_db.table("t")
        version = table.version
        assert not table.has_column_cache
        columns = table.column_data()
        assert table.has_column_cache
        assert columns == [[1, 2, 3, 4, 5], [3, None, 1, None, 2]]
        plan, outputs = _plan_for("SELECT a, b FROM t", sort_db)
        before = execute_plan(plan, sort_db, outputs)
        # A bare scan's result holds the snapshot's own lists.
        assert before.data == columns and before.data[0] is columns[0]
        sort_db.insert("t", [(6, 7)])
        sort_db.insert("t", [(7, None)])
        assert table.version == version + 2
        assert table.has_column_cache
        assert table.column_data() == [list(c) for c in zip(*table.rows)]
        # Extended into new lists: what was read before the inserts is
        # unchanged, so an in-place extend fails here.
        assert columns == [[1, 2, 3, 4, 5], [3, None, 1, None, 2]]
        assert before == QueryResult.from_rows(
            outputs, [(1, 3), (2, None), (3, 1), (4, None), (5, 2)]
        )
        assert execute_plan(plan, sort_db, outputs).row_count == 7

    def test_the_scan_after_an_insert_is_a_hit(self, sort_db):
        plan, outputs = _plan_for("SELECT a FROM t WHERE b > 1", sort_db)
        metrics = MetricsRegistry()
        execute_plan(plan, sort_db, outputs, metrics=metrics)
        assert metrics.counter_value("exec.scan_cache_hits") == 0
        sort_db.insert("t", [(6, 7)])
        result = execute_plan(plan, sort_db, outputs, metrics=metrics)
        assert metrics.counter_value("exec.scan_cache_hits") == 1
        assert result.rows == [(1,), (5,), (6,)]

    def test_data_fingerprint_tracks_mutation(self, sort_db):
        before = sort_db.data_fingerprint()
        assert before == sort_db.data_fingerprint()
        sort_db.insert("t", [(9, None)])
        assert sort_db.data_fingerprint() != before

    def test_scan_cache_metric(self, sort_db):
        plan, outputs = _plan_for("SELECT a FROM t", sort_db)
        metrics = MetricsRegistry()
        execute_plan(plan, sort_db, outputs, metrics=metrics)
        execute_plan(plan, sort_db, outputs, metrics=metrics)
        assert metrics.counter_value("exec.scan_cache_hits") >= 1


# ------------------------------------------------- late materialisation


def _join_tables(left_rows, right_rows):
    """``l(lk, la, lb, lc)`` and ``r(rk, ra, rb)`` behind table scans."""
    left_def = TableDef(
        name="l",
        columns=[ColumnDef(name, DataType.INT)
                 for name in ("lk", "la", "lb", "lc")],
    )
    right_def = TableDef(
        name="r",
        columns=[ColumnDef(name, DataType.INT) for name in ("rk", "ra", "rb")],
    )
    database = Database(Catalog([left_def, right_def]))
    database.insert("l", left_rows)
    database.insert("r", right_rows)
    left = TableScan("l", make_get(left_def).columns, "l")
    right = TableScan("r", make_get(right_def).columns, "r")
    return database, left, right


class TestLateMaterialisation:
    def test_join_builds_exactly_the_columns_read(self):
        database, left, right = _join_tables(
            [(k, k, 10 * k, 100 * k) for k in range(6)],
            [(k % 3, k, -k) for k in range(6)],
        )
        lk, la, lb, lc = left.columns
        rk, ra, rb = right.columns
        join = HashJoin(
            JoinKind.INNER, left, right, (lk,), (rk,),
            residual=Comparison(ComparisonOp.LT, ColumnRef(la), ColumnRef(ra)),
        )
        outputs = tuple(
            (Column(name, DataType.INT), ColumnRef(column))
            for name, column in (("x", lb), ("y", lc), ("z", rb))
        )
        plan = ComputeScalar(join, outputs)
        metrics = MetricsRegistry()
        result = execute_plan(plan, database, metrics=metrics)
        assert result.rows == execute_plan_iterator(plan, database).rows
        assert result.row_count == 3
        # Four gathers of 4 + 3 columns: both sides of the candidate
        # pairs, where the residual reads la and ra, and both sides of
        # the output, where the projection reads lb, lc and rb.  The join
        # keys are read off the scans.
        assert metrics.counter_value("exec.columns_gathered") == 2 + 3
        assert metrics.counter_value("exec.columns_skipped") == 14 - 5

    def test_counters_need_a_registry_and_a_gather(self, sort_db):
        plan, outputs = _plan_for("SELECT a, b FROM t", sort_db)
        metrics = MetricsRegistry()
        execute_plan(plan, sort_db, outputs, metrics=metrics)
        assert metrics.counter_value("exec.columns_gathered") == 0
        assert metrics.counter_value("exec.columns_skipped") == 0
        plan, outputs = _plan_for("SELECT a FROM t WHERE b > 1", sort_db)
        execute_plan(plan, sort_db, outputs, metrics=metrics)
        assert metrics.counter_value("exec.columns_gathered") == 1
        assert metrics.counter_value("exec.columns_skipped") == 1

    def test_zero_column_batch_keeps_its_rows(self):
        empty = Batch((), [], 3)
        assert empty.take([2, 0]).length == 2
        padded = empty.beside(empty).take([1, -1], padded=True)
        assert padded.length == 2 and len(padded.data) == 0


#: ``(lk, la)`` rows with ties on both keys, NULL first keys, and ties that
#: straddle a cut at any count: rows 1 and 4, 2 and 6, 0, 3 and 7 share lk.
_ORDERED = [
    (2, 1), (1, None), (None, 3), (2, 0), (1, 2), (None, None), (None, 1),
    (2, 1), (3, 0),
]


def _ordered_scan():
    database, left, _ = _join_tables(
        [(k, a, i, 0) for i, (k, a) in enumerate(_ORDERED)], []
    )
    return database, left


def _same_rows_as_the_iterator(plan, database):
    rows = execute_plan(plan, database).rows
    assert rows == execute_plan_iterator(plan, database).rows
    return rows


class TestTopOverSort:
    """A ``Top`` over a ``Sort`` sorts only the rows that can make the cut,
    and returns exactly the full sort's first rows, in its order."""

    # 2, 4 and 6 cut through a run of ties in one direction or the other.
    @pytest.mark.parametrize("count", [0, 1, 2, 4, 6, 9, 12])
    @pytest.mark.parametrize("first_ascending", [True, False])
    @pytest.mark.parametrize("second_ascending", [True, False])
    def test_rows_and_order_are_the_iterators(
        self, count, first_ascending, second_ascending
    ):
        database, scan = _ordered_scan()
        lk, la, lb, _ = scan.columns
        keys = (SortKey(lk, first_ascending), SortKey(la, second_ascending))
        rows = _same_rows_as_the_iterator(
            Top(Sort(scan, keys), count), database
        )
        full = _same_rows_as_the_iterator(Sort(scan, keys), database)
        assert rows == full[:count]

    def test_ties_straddling_the_cut_keep_input_order(self):
        database, scan = _ordered_scan()
        lk, _, lb, _ = scan.columns
        plan = Top(Sort(scan, (SortKey(lk),)), 4)
        # Three NULL keys first; row 1 and row 4 tie on lk = 1 across the
        # cut, and the earlier one is kept.
        assert [row[2] for row in _same_rows_as_the_iterator(plan, database)] == [
            2, 5, 6, 1,
        ]

    def test_the_sort_below_sees_only_the_candidates(self):
        database, scan = _ordered_scan()
        lk = scan.columns[0]
        tracer = RecordingTracer()
        plan = Top(Sort(scan, (SortKey(lk, ascending=False),)), 2)
        execute_plan(plan, database, tracer=tracer)
        rows_out = {
            dict(event.args)["op"]: dict(event.args)["rows_out"]
            for event in tracer.events if event.name == "exec.operator"
        }
        # lk = 3, then the three rows with lk = 2 tied for second place.
        assert rows_out == {"TABLE_SCAN": 9, "SORT": 4, "TOP": 2}


class TestFirstOccurrenceOrder:
    """Groups and distinct rows come out in first-occurrence order, NULL
    keys grouped together, as on the iterator."""

    @pytest.mark.parametrize("width", [1, 2])
    def test_group_by(self, width):
        database, scan = _ordered_scan()
        lk, la, lb, _ = scan.columns
        count = Column("n", DataType.INT)
        total = Column("s", DataType.INT)
        counted = Column("c", DataType.INT)
        plan = HashAggregate(scan, (lk, la)[:width], (
            (count, AggregateCall(AggregateFunction.COUNT_STAR)),
            (total, AggregateCall(AggregateFunction.SUM, ColumnRef(lb))),
            (counted, AggregateCall(AggregateFunction.COUNT, ColumnRef(la))),
        ))
        rows = _same_rows_as_the_iterator(plan, database)
        if width == 1:
            assert rows == [
                (2, 3, 10, 3), (1, 2, 5, 1), (None, 3, 13, 2), (3, 1, 8, 1),
            ]
        else:
            assert [row[:2] for row in rows] == [
                (2, 1), (1, None), (None, 3), (2, 0), (1, 2), (None, None),
                (None, 1), (3, 0),
            ]

    @pytest.mark.parametrize("width", [1, 2])
    def test_distinct(self, width):
        database, scan = _ordered_scan()
        shown = scan.columns[:width]
        plan = HashDistinct(ComputeScalar(scan, tuple(
            (Column(f"k{p}", DataType.INT), ColumnRef(column))
            for p, column in enumerate(shown)
        )))
        rows = _same_rows_as_the_iterator(plan, database)
        if width == 1:
            assert rows == [(2,), (1,), (None,), (3,)]
        else:
            assert len(rows) == 8 and rows[-1] == (3, 0)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("operator", [HashIntersect, HashExcept])
    def test_intersect_and_except(self, width, operator):
        database, left, right = _join_tables(
            [(k, a, i, 0) for i, (k, a) in enumerate(_ORDERED)],
            [(1, None, 0), (None, 3, 0), (3, 0, 0), (None, 3, 0)],
        )
        outputs = tuple(Column(f"k{p}", DataType.INT) for p in range(width))
        plan = operator(
            left, right, outputs, left.columns[:width], right.columns[:width]
        )
        rows = _same_rows_as_the_iterator(plan, database)
        expected = {
            (HashIntersect, 1): [(1,), (None,), (3,)],
            (HashExcept, 1): [(2,)],
            (HashIntersect, 2): [(1, None), (None, 3), (3, 0)],
            (HashExcept, 2): [
                (2, 1), (2, 0), (1, 2), (None, None), (None, 1),
            ],
        }
        assert rows == expected[operator, width]


class TestHashJoinPairOrder:
    """Probe-side major, build-insertion order within a key; a NULL key
    matches nothing on either side.  Duplicate build keys take the grouped
    table, unique ones the one-entry-per-key table."""

    LEFT = [(1, 0), (None, 1), (2, 2), (1, 3), (3, 4), (None, 5)]
    DUPLICATES = [(2, 10), (1, 11), (None, 12), (1, 13), (2, 14), (None, 15)]
    UNIQUE = [(2, 10), (None, 12), (1, 13), (None, 15)]

    def _rows(self, kind, right_rows, ra_above=None):
        database, left, right = _join_tables(
            [(k, a, 0, 0) for k, a in self.LEFT],
            [(k, a, 0) for k, a in right_rows],
        )
        residual = TRUE if ra_above is None else Comparison(
            ComparisonOp.GT,
            ColumnRef(right.columns[1]),
            Literal(ra_above, DataType.INT),
        )
        join = HashJoin(
            kind, left, right, (left.columns[0],), (right.columns[0],),
            residual=residual,
        )
        shown = (left.columns[1],) + (
            () if kind in (JoinKind.SEMI, JoinKind.ANTI)
            else (right.columns[1],)
        )
        rows = execute_plan(join, database, shown).rows
        assert rows == execute_plan_iterator(join, database, shown).rows
        return rows

    def test_inner(self):
        assert self._rows(JoinKind.INNER, self.DUPLICATES) == [
            (0, 11), (0, 13), (2, 10), (2, 14), (3, 11), (3, 13),
        ]
        assert self._rows(JoinKind.INNER, self.UNIQUE) == [
            (0, 13), (2, 10), (3, 13),
        ]

    def test_left_outer(self):
        assert self._rows(JoinKind.LEFT_OUTER, self.DUPLICATES) == [
            (0, 11), (0, 13), (1, None), (2, 10), (2, 14), (3, 11), (3, 13),
            (4, None), (5, None),
        ]
        assert self._rows(JoinKind.LEFT_OUTER, self.UNIQUE) == [
            (0, 13), (1, None), (2, 10), (3, 13), (4, None), (5, None),
        ]

    def test_semi_and_anti(self):
        for right_rows in (self.DUPLICATES, self.UNIQUE):
            assert self._rows(JoinKind.SEMI, right_rows) == [(0,), (2,), (3,)]
            assert self._rows(JoinKind.ANTI, right_rows) == [(1,), (4,), (5,)]

    def test_residual_decides_after_the_keys(self):
        # Of the build rows 10..15 the residual keeps 13 and 14.
        rows = self._rows
        assert rows(JoinKind.INNER, self.DUPLICATES, 12) == [
            (0, 13), (2, 14), (3, 13),
        ]
        assert rows(JoinKind.LEFT_OUTER, self.DUPLICATES, 12) == [
            (0, 13), (1, None), (2, 14), (3, 13), (4, None), (5, None),
        ]
        assert rows(JoinKind.LEFT_OUTER, self.UNIQUE, 12) == [
            (0, 13), (1, None), (2, None), (3, 13), (4, None), (5, None),
        ]
        assert rows(JoinKind.SEMI, self.DUPLICATES, 13) == [(2,)]
        assert rows(JoinKind.ANTI, self.DUPLICATES, 13) == [
            (0,), (1,), (3,), (4,), (5,),
        ]


# ------------------------------------------------- batched execution


class TestPlanServiceExecuteMany:
    def _service(self, sort_db):
        from repro.service import PlanService

        return PlanService(
            sort_db, registry=default_registry(), metrics=MetricsRegistry()
        )

    def test_coalesces_identical_requests(self, sort_db):
        plan, outputs = _plan_for("SELECT a, b FROM t WHERE b > 1", sort_db)
        service = self._service(sort_db)
        items = service.execute_many([(plan, outputs)] * 3)
        assert [item.coalesced for item in items] == [False, True, True]
        # Coalesced requests share one QueryResult (and its digest).
        assert items[0].result is items[1].result is items[2].result
        assert service.metrics.counter_value("exec.batches") == 1
        assert service.metrics.counter_value("exec.coalesced") == 2
        assert service.metrics.counter_value("exec.cache_hits") == 0

    @pytest.mark.parametrize(
        "raised, message",
        [
            (ExecutionError("injected"), "injected"),
            (KeyError(158), "KeyError: 158"),
        ],
        ids=["execution-error", "key-error"],
    )
    def test_error_does_not_abort_batch(
        self, sort_db, monkeypatch, raised, message
    ):
        """Whatever one plan raises is that item's ``ExecutionError``;
        the other items still execute."""
        plan, outputs = _plan_for("SELECT a FROM t", sort_db)
        bad_plan, bad_outputs = _plan_for("SELECT b FROM t", sort_db)
        import repro.engine.batch as batch_module

        real = batch_module.execute_plan

        def flaky(target, *args, **kwargs):
            if target is bad_plan:
                raise raised
            return real(target, *args, **kwargs)

        monkeypatch.setattr(batch_module, "execute_plan", flaky)
        items = self._service(sort_db).execute_many(
            [(plan, outputs), (bad_plan, bad_outputs), (plan, outputs)]
        )
        assert items[0].ok and items[2].ok
        assert not items[1].ok
        assert isinstance(items[1].error, ExecutionError)
        assert str(items[1].error) == message
        if not isinstance(raised, ExecutionError):
            assert items[1].error.__cause__ is raised

    def test_cross_call_result_cache(self, sort_db):
        service = self._service(sort_db)
        plan, outputs = _plan_for("SELECT a, b FROM t WHERE b > 1", sort_db)
        first = service.execute_many([(plan, outputs)])
        second = service.execute_many([(plan, outputs)] * 2)
        assert not first[0].coalesced
        assert second[0].coalesced and second[1].coalesced
        assert second[0].result is second[1].result is first[0].result
        # A key cached by an earlier call is a cache hit at every later
        # occurrence; only a key first executed in this call coalesces.
        assert service.metrics.counter_value("exec.cache_hits") == 2
        assert service.metrics.counter_value("exec.coalesced") == 0
        assert service.metrics.counter_value("exec.batches") == 1

    def test_mutation_invalidates_cache(self, sort_db):
        service = self._service(sort_db)
        plan, outputs = _plan_for("SELECT a FROM t", sort_db)
        first = service.execute_many([(plan, outputs)])
        sort_db.insert("t", [(7, 1)])
        second = service.execute_many([(plan, outputs)])
        assert not second[0].coalesced
        assert second[0].result.row_count == first[0].result.row_count + 1

    def test_requires_database(self, sort_db):
        from repro.service import PlanService

        service = PlanService(
            None,
            catalog=sort_db.catalog,
            stats=sort_db.stats_repository(),
            registry=default_registry(),
        )
        with pytest.raises(ValueError, match="needs a database"):
            service.execute_many([])
