"""Unit tests for the synthetic data generator and the TPC-H workload."""

import hashlib
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Catalog, ColumnDef, DataType, ForeignKey, SchemaError, TableDef
from repro.datagen.generator import DataGenerator, GenerationProfile
from repro.storage.database import Database
from repro.workloads import BASE_ROW_COUNTS, star_database, tpch_catalog, tpch_database


class TestDataGenerator:
    def test_deterministic_by_seed(self, tiny_catalog):
        rows_a = DataGenerator(tiny_catalog, seed=5).generate_table(
            tiny_catalog.table("dept"), 10
        )
        rows_b = DataGenerator(tiny_catalog, seed=5).generate_table(
            tiny_catalog.table("dept"), 10
        )
        assert rows_a == rows_b

    def test_different_seeds_differ(self, tiny_catalog):
        rows_a = DataGenerator(tiny_catalog, seed=5).generate_table(
            tiny_catalog.table("dept"), 10
        )
        rows_b = DataGenerator(tiny_catalog, seed=6).generate_table(
            tiny_catalog.table("dept"), 10
        )
        assert rows_a != rows_b

    def test_primary_keys_unique(self, tiny_catalog):
        rows = DataGenerator(tiny_catalog, seed=0).generate_table(
            tiny_catalog.table("dept"), 50
        )
        keys = [row[0] for row in rows]
        assert len(set(keys)) == len(keys)

    def test_not_null_respected(self, tiny_catalog):
        rows = DataGenerator(tiny_catalog, seed=0).generate_table(
            tiny_catalog.table("dept"), 50
        )
        assert all(row[0] is not None and row[1] is not None for row in rows)

    def test_nullable_columns_receive_nulls(self, tiny_catalog):
        profile = GenerationProfile(null_rate=0.5)
        rows = DataGenerator(
            tiny_catalog, seed=0, profile=profile
        ).generate_table(tiny_catalog.table("dept"), 100)
        nulls = sum(1 for row in rows if row[2] is None)
        assert nulls > 10

    def test_foreign_keys_reference_existing_rows(self, tiny_catalog):
        generator = DataGenerator(tiny_catalog, seed=0)
        database = Database(tiny_catalog)
        generator.populate(database, {"dept": 10, "emp": 60})
        dept_ids = {row[0] for row in database.table("dept").rows}
        for row in database.table("emp").rows:
            if row[1] is not None:
                assert row[1] in dept_ids

    def test_fk_coverage_leaves_unmatched_parents(self, tiny_catalog):
        profile = GenerationProfile(fk_coverage=0.5, null_rate=0.0)
        generator = DataGenerator(tiny_catalog, seed=0, profile=profile)
        database = Database(tiny_catalog)
        generator.populate(database, {"dept": 20, "emp": 200})
        referenced = {row[1] for row in database.table("emp").rows}
        dept_ids = {row[0] for row in database.table("dept").rows}
        assert dept_ids - referenced, "some parents must be unmatched"

    def test_cyclic_foreign_keys_detected(self):
        a = TableDef(
            name="a",
            columns=[
                ColumnDef("id", DataType.INT, nullable=False),
                ColumnDef("b_ref", DataType.INT),
            ],
            primary_key=("id",),
            foreign_keys=[ForeignKey(("b_ref",), "b", ("id",))],
        )
        b = TableDef(
            name="b",
            columns=[
                ColumnDef("id", DataType.INT, nullable=False),
                ColumnDef("a_ref", DataType.INT),
            ],
            primary_key=("id",),
            foreign_keys=[ForeignKey(("a_ref",), "a", ("id",))],
        )
        catalog = Catalog([a, b])
        generator = DataGenerator(catalog, seed=0)
        with pytest.raises(SchemaError, match="cyclic"):
            generator.populate(Database(catalog), {"a": 1, "b": 1})

    def test_impossible_key_domain_raises(self):
        table = TableDef(
            name="narrow",
            columns=[ColumnDef("flag", DataType.BOOL, nullable=False)],
            primary_key=("flag",),
        )
        catalog = Catalog([table])
        generator = DataGenerator(catalog, seed=0)
        with pytest.raises(SchemaError, match="unique rows"):
            generator.generate_table(table, 5)


class TestTpchWorkload:
    def test_catalog_has_eight_tables(self):
        assert len(tpch_catalog()) == 8

    def test_catalog_validates(self):
        tpch_catalog().validate()

    def test_database_row_counts_match_scale(self):
        database = tpch_database(seed=0, scale=1.0)
        for name, count in BASE_ROW_COUNTS.items():
            assert database.row_count(name) == count

    def test_scale_factor_applies(self):
        database = tpch_database(seed=0, scale=0.5)
        assert database.row_count("lineitem") == BASE_ROW_COUNTS["lineitem"] // 2

    def test_deterministic(self):
        a = tpch_database(seed=3)
        b = tpch_database(seed=3)
        assert a.table("orders").rows == b.table("orders").rows

    def test_lineitem_fk_into_orders(self):
        database = tpch_database(seed=0)
        order_keys = {row[0] for row in database.table("orders").rows}
        for row in database.table("lineitem").rows:
            assert row[0] in order_keys


def data_digest(database: Database) -> str:
    """SHA-256 over the ``repr`` of every table's rows, tables by name."""
    tables = sorted(database.tables(), key=lambda table: table.name)
    content = repr([(table.name, table.rows) for table in tables])
    return hashlib.sha256(content.encode()).hexdigest()


#: ``(seed, scale) -> data_digest(tpch_database(seed, scale))``.  The rows
#: are the experiment's input: a new digest is a new test database, which
#: moves every golden result and pinned count built on it.
TPCH_DIGESTS = {
    (0, 1.0): "3fcba8033726b226c686db8e221e5e4e23f9c4ca1b86d18a50a467b755ddc25d",
    (1, 1.0): "edf06c7e89c6c2d2ca6d824317c6ab353414e0707a07ca802fe034b612ed81f9",
    (3, 1.0): "ae1d359b951a504bb86b03111b4d7d4a708f8ebedd80233ccc82d3f6d0475bcc",
    (0, 0.5): "84be03ec0638171bb06cae605ac510cad6177d78800dee5abcb1850fbbd6628b",
    (0, 100.0): "97bcf002daa89f1a11196ca08afe7ec8e95eef28e87c358bc3cf06a3bc65bf6a",
    (3, 7.0): "8318db5a7d6427745765c7fdc2cae56cd19cd35b354446968544e538eeebdba6",
}
STAR_DIGEST = "e1b3a11b0a251e76ea2a5d310606574489b2ae26c445e44ad647d527c5a67e84"


class TestGoldenData:
    @pytest.mark.parametrize("seed, scale", sorted(TPCH_DIGESTS))
    def test_tpch_rows_are_pinned(self, seed, scale):
        database = tpch_database(seed=seed, scale=scale)
        assert data_digest(database) == TPCH_DIGESTS[seed, scale]

    def test_star_rows_are_pinned(self):
        assert data_digest(star_database()) == STAR_DIGEST

    def test_rebuild_has_no_history(self, tiny_catalog):
        star_database(seed=4, scale=0.5)
        DataGenerator(tiny_catalog, seed=9).populate(
            Database(tiny_catalog), {"dept": 30, "emp": 90}
        )
        tpch_database(seed=1)
        assert data_digest(tpch_database(seed=0)) == TPCH_DIGESTS[0, 1.0]


class ReferenceGenerator(DataGenerator):
    """The row-at-a-time generator the draw plans replaced, kept as their
    reference: same RNG calls in the same order, so the same rows."""

    def _reference_scalar(self, column: ColumnDef) -> object:
        profile = self.profile
        if column.data_type is DataType.INT:
            return self._rng.randint(*profile.int_range)
        if column.data_type is DataType.FLOAT:
            return round(self._rng.uniform(*profile.float_range), 2)
        if column.data_type is DataType.STRING:
            return self._rng.choice(self._string_pool)
        if column.data_type is DataType.DATE:
            return self._rng.randint(*profile.date_range)
        if column.data_type is DataType.BOOL:
            return self._rng.random() < 0.5
        raise SchemaError(f"unsupported data type {column.data_type}")

    def _reference_value(self, column: ColumnDef) -> object:
        if column.nullable and self._rng.random() < self.profile.null_rate:
            return None
        return self._reference_scalar(column)

    def generate_table(
        self,
        table: TableDef,
        row_count: int,
        referenced: Optional[Dict[str, List[Tuple]]] = None,
    ) -> List[Tuple]:
        referenced = referenced or {}
        key_columns = {name for key in table.all_keys() for name in key}
        fk_sources = self._reference_fk_sources(table, referenced)
        seen_keys: Dict[Tuple[str, ...], set] = {
            key: set() for key in table.all_keys()
        }

        rows: List[Tuple] = []
        attempts_budget = max(100, row_count * 50)
        while len(rows) < row_count and attempts_budget > 0:
            attempts_budget -= 1
            row = self._generate_row(table, key_columns, fk_sources, len(rows))
            if self._violates_key(table, row, seen_keys):
                continue
            self._record_keys(table, row, seen_keys)
            rows.append(row)
        if len(rows) < row_count:
            raise SchemaError(
                f"could not generate {row_count} unique rows for "
                f"{table.name!r}; key domains too small"
            )
        return rows

    def _generate_row(self, table, key_columns, fk_sources, ordinal) -> Tuple:
        values: List[object] = []
        for column in table.columns:
            if column.name in fk_sources:
                pool = fk_sources[column.name]
                if column.nullable and self._rng.random() < self.profile.null_rate:
                    values.append(None)
                else:
                    values.append(self._rng.choice(pool))
            elif (
                len(table.primary_key) == 1
                and column.name == table.primary_key[0]
                and column.data_type is DataType.INT
            ):
                values.append(ordinal + 1)
            elif column.name in key_columns:
                values.append(self._reference_scalar(column))
            else:
                values.append(self._reference_value(column))
        return tuple(values)

    def _reference_fk_sources(self, table, referenced) -> Dict[str, List[object]]:
        sources: Dict[str, List[object]] = {}
        for fk in table.foreign_keys:
            if fk.ref_table not in referenced:
                continue
            ref_rows = referenced[fk.ref_table]
            if not ref_rows:
                continue
            ref_names = self.catalog.table(fk.ref_table).column_names
            for local, remote in zip(fk.columns, fk.ref_columns):
                position = ref_names.index(remote)
                pool = [row[position] for row in ref_rows]
                keep = max(1, int(len(pool) * self.profile.fk_coverage))
                if keep < len(pool):
                    pool = self._rng.sample(pool, keep)
                sources[local] = pool
        return sources

    @staticmethod
    def _violates_key(table, row, seen_keys) -> bool:
        names = table.column_names
        for key, seen in seen_keys.items():
            value = tuple(row[names.index(name)] for name in key)
            if value in seen:
                return True
        return False

    @staticmethod
    def _record_keys(table, row, seen_keys) -> None:
        names = table.column_names
        for key, seen in seen_keys.items():
            seen.add(tuple(row[names.index(name)] for name in key))


_ranges = st.tuples(
    st.integers(-1_000, 1_000), st.integers(0, 400)
).map(lambda low_span: (low_span[0], low_span[0] + low_span[1]))
_profiles = st.builds(
    GenerationProfile,
    null_rate=st.floats(0.0, 1.0),
    int_range=_ranges,
    float_range=st.tuples(
        st.floats(-1e3, 1e3), st.floats(0.0, 1e3)
    ).map(lambda low_span: (low_span[0], low_span[0] + low_span[1])),
    string_length=st.integers(1, 4),
    string_pool_size=st.integers(1, 12),
    date_range=_ranges,
    fk_coverage=st.floats(0.01, 1.0),
)
_extra_columns = st.lists(
    st.tuples(st.sampled_from(list(DataType)), st.booleans()), max_size=4
)


@st.composite
def _catalogs(draw) -> Catalog:
    """A parent and a child table: the parent's primary key is the dense
    surrogate or a drawn type, either may carry a unique key over one of
    its drawn columns, and the child's primary key is its FK alone (never
    a surrogate) or composite over the FK and a drawn column, beside a
    nullable FK and BOOL and DATE columns."""

    def extras(prefix):
        return [
            ColumnDef(f"{prefix}_x{i}", data_type, nullable)
            for i, (data_type, nullable) in enumerate(draw(_extra_columns))
        ]

    def unique_keys(columns):
        if not columns or not draw(st.booleans()):
            return []
        return [(draw(st.sampled_from(columns)).name,)]

    parent_extras = extras("p")
    parent = TableDef(
        name="p",
        columns=[
            ColumnDef("p_id", draw(st.sampled_from(list(DataType))), False),
            *parent_extras,
        ],
        primary_key=("p_id",),
        unique_keys=unique_keys(parent_extras),
    )
    child_extras = [
        ColumnDef("c_flag", DataType.BOOL, draw(st.booleans())),
        ColumnDef("c_day", DataType.DATE, draw(st.booleans())),
        *extras("c"),
    ]
    child = TableDef(
        name="c",
        columns=[
            ColumnDef("c_ref", DataType.INT, False),
            ColumnDef("c_line", draw(st.sampled_from(list(DataType))), False),
            ColumnDef("c_opt", DataType.INT, True),
            *child_extras,
        ],
        primary_key=draw(st.sampled_from([("c_ref", "c_line"), ("c_ref",)])),
        unique_keys=unique_keys(child_extras),
        foreign_keys=[
            ForeignKey(("c_ref",), "p", ("p_id",)),
            ForeignKey(("c_opt",), "p", ("p_id",)),
        ],
    )
    return Catalog([parent, child])


def _outcome(generator, table, row_count, referenced):
    """Rows, or the ``SchemaError`` text, and the RNG state after."""
    try:
        result = generator.generate_table(table, row_count, referenced)
    except SchemaError as error:
        result = str(error)
    return result, generator._rng.getstate()


class TestDrawPlanMatchesReference:
    @given(
        catalog=_catalogs(),
        profile=_profiles,
        seed=st.integers(0, 2**32),
        parent_rows=st.integers(0, 30),
        child_rows=st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_row_for_row(
        self, catalog, profile, seed, parent_rows, child_rows
    ):
        new = DataGenerator(catalog, seed=seed, profile=profile)
        old = ReferenceGenerator(catalog, seed=seed, profile=profile)
        parent, child = catalog.table("p"), catalog.table("c")
        got = _outcome(new, parent, parent_rows, {})
        assert got == _outcome(old, parent, parent_rows, {})
        rows = got[0]
        if isinstance(rows, list):
            referenced = {"p": rows}
            assert _outcome(new, child, child_rows, referenced) == _outcome(
                old, child, child_rows, referenced
            )

    def test_small_key_domain_raises_the_same_error(self):
        table = TableDef(
            name="narrow",
            columns=[
                ColumnDef("flag", DataType.BOOL, nullable=False),
                ColumnDef("day", DataType.DATE),
            ],
            primary_key=("flag", "day"),
        )
        profile = GenerationProfile(date_range=(5, 7))
        catalog = Catalog([table])
        errors = []
        for generator in (DataGenerator, ReferenceGenerator):
            with pytest.raises(SchemaError, match="unique rows") as raised:
                generator(catalog, seed=2, profile=profile).generate_table(
                    table, 7
                )
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_tpch_matches_reference(self):
        catalog = tpch_catalog()
        new, old = Database(catalog), Database(catalog)
        counts = {name: 2 * count for name, count in BASE_ROW_COUNTS.items()}
        DataGenerator(catalog, seed=5).populate(new, counts)
        ReferenceGenerator(catalog, seed=5).populate(old, counts)
        assert data_digest(new) == data_digest(old)
