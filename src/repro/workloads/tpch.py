"""A TPC-H-shaped test database.

The paper runs its experiments against the TPC-H database (Section 6.1).  We
reproduce the same eight-table schema -- REGION, NATION, SUPPLIER, CUSTOMER,
PART, PARTSUPP, ORDERS, LINEITEM -- with the standard primary keys and
foreign keys, and populate it with deterministic synthetic data.  Since the
paper focuses on *logical* transformation rules, which it notes fire "by and
large regardless of the data size or distribution", a scaled-down instance
(hundreds to thousands of rows) preserves all the behaviour the framework
exercises while keeping correctness runs fast.
"""

from __future__ import annotations

from typing import Dict

from repro.catalog.schema import Catalog, ColumnDef, DataType, ForeignKey, TableDef
from repro.datagen.generator import DataGenerator
from repro.storage.database import Database


def _col(name: str, data_type: DataType, nullable: bool = True) -> ColumnDef:
    return ColumnDef(name, data_type, nullable)


def tpch_catalog() -> Catalog:
    """The TPC-H schema (scaled; types simplified to the engine's types)."""
    region = TableDef(
        name="region",
        columns=[
            _col("r_regionkey", DataType.INT, nullable=False),
            _col("r_name", DataType.STRING, nullable=False),
            _col("r_comment", DataType.STRING),
        ],
        primary_key=("r_regionkey",),
    )
    nation = TableDef(
        name="nation",
        columns=[
            _col("n_nationkey", DataType.INT, nullable=False),
            _col("n_name", DataType.STRING, nullable=False),
            _col("n_regionkey", DataType.INT, nullable=False),
            _col("n_comment", DataType.STRING),
        ],
        primary_key=("n_nationkey",),
        foreign_keys=[ForeignKey(("n_regionkey",), "region", ("r_regionkey",))],
    )
    supplier = TableDef(
        name="supplier",
        columns=[
            _col("s_suppkey", DataType.INT, nullable=False),
            _col("s_name", DataType.STRING, nullable=False),
            _col("s_address", DataType.STRING),
            _col("s_nationkey", DataType.INT, nullable=False),
            _col("s_phone", DataType.STRING),
            _col("s_acctbal", DataType.FLOAT),
        ],
        primary_key=("s_suppkey",),
        foreign_keys=[ForeignKey(("s_nationkey",), "nation", ("n_nationkey",))],
    )
    customer = TableDef(
        name="customer",
        columns=[
            _col("c_custkey", DataType.INT, nullable=False),
            _col("c_name", DataType.STRING, nullable=False),
            _col("c_address", DataType.STRING),
            _col("c_nationkey", DataType.INT, nullable=False),
            _col("c_phone", DataType.STRING),
            _col("c_acctbal", DataType.FLOAT),
            _col("c_mktsegment", DataType.STRING),
        ],
        primary_key=("c_custkey",),
        foreign_keys=[ForeignKey(("c_nationkey",), "nation", ("n_nationkey",))],
    )
    part = TableDef(
        name="part",
        columns=[
            _col("p_partkey", DataType.INT, nullable=False),
            _col("p_name", DataType.STRING, nullable=False),
            _col("p_mfgr", DataType.STRING),
            _col("p_brand", DataType.STRING),
            _col("p_type", DataType.STRING),
            _col("p_size", DataType.INT),
            _col("p_retailprice", DataType.FLOAT),
        ],
        primary_key=("p_partkey",),
    )
    partsupp = TableDef(
        name="partsupp",
        columns=[
            _col("ps_partkey", DataType.INT, nullable=False),
            _col("ps_suppkey", DataType.INT, nullable=False),
            _col("ps_availqty", DataType.INT),
            _col("ps_supplycost", DataType.FLOAT),
        ],
        primary_key=("ps_partkey", "ps_suppkey"),
        foreign_keys=[
            ForeignKey(("ps_partkey",), "part", ("p_partkey",)),
            ForeignKey(("ps_suppkey",), "supplier", ("s_suppkey",)),
        ],
    )
    orders = TableDef(
        name="orders",
        columns=[
            _col("o_orderkey", DataType.INT, nullable=False),
            _col("o_custkey", DataType.INT, nullable=False),
            _col("o_orderstatus", DataType.STRING),
            _col("o_totalprice", DataType.FLOAT),
            _col("o_orderdate", DataType.DATE),
            _col("o_orderpriority", DataType.INT),
        ],
        primary_key=("o_orderkey",),
        foreign_keys=[ForeignKey(("o_custkey",), "customer", ("c_custkey",))],
    )
    lineitem = TableDef(
        name="lineitem",
        columns=[
            _col("l_orderkey", DataType.INT, nullable=False),
            _col("l_linenumber", DataType.INT, nullable=False),
            _col("l_partkey", DataType.INT, nullable=False),
            _col("l_suppkey", DataType.INT, nullable=False),
            _col("l_quantity", DataType.INT),
            _col("l_extendedprice", DataType.FLOAT),
            _col("l_discount", DataType.FLOAT),
            _col("l_shipdate", DataType.DATE),
            _col("l_returnflag", DataType.STRING),
        ],
        primary_key=("l_orderkey", "l_linenumber"),
        foreign_keys=[
            ForeignKey(("l_orderkey",), "orders", ("o_orderkey",)),
            ForeignKey(("l_partkey",), "part", ("p_partkey",)),
            ForeignKey(("l_suppkey",), "supplier", ("s_suppkey",)),
        ],
    )
    return Catalog(
        [region, nation, supplier, customer, part, partsupp, orders, lineitem]
    )


#: Row counts at "scale 1" of this miniature instance.  The correctness
#: harness executes hundreds of plans per run, so the default is small;
#: pass a larger ``scale`` for heavier executions.
BASE_ROW_COUNTS: Dict[str, int] = {
    "region": 5,
    "nation": 25,
    "supplier": 30,
    "customer": 60,
    "part": 80,
    "partsupp": 160,
    "orders": 200,
    "lineitem": 600,
}


def tpch_database(
    seed: int = 0,
    scale: float = 1.0,
) -> Database:
    """Build and populate the miniature TPC-H database deterministically."""
    catalog = tpch_catalog()
    database = Database(catalog)
    generator = DataGenerator(catalog, seed=seed)
    counts = {
        name: max(1, int(count * scale))
        for name, count in BASE_ROW_COUNTS.items()
    }
    generator.populate(database, counts)
    return database
