"""A star-schema test database (retail sales mart).

The paper notes (Section 6.1) that its results hold across "other databases
with different schemas and sizes".  This workload provides that second
schema shape: a central fact table with four dimension tables -- the
classic star -- exercising many-FK fan-in, which matters for rules whose
preconditions depend on declared constraints (eager/lazy aggregation,
semi-join simplification; and the star-join discussion of Section 7).
"""

from __future__ import annotations

from typing import Dict

from repro.catalog.schema import Catalog, ColumnDef, DataType, ForeignKey, TableDef
from repro.datagen.generator import DataGenerator
from repro.storage.database import Database


def _col(name: str, data_type: DataType, nullable: bool = True) -> ColumnDef:
    return ColumnDef(name, data_type, nullable)


def star_catalog() -> Catalog:
    """Fact table ``sales`` plus dimensions date/store/product/promotion."""
    date_dim = TableDef(
        name="date_dim",
        columns=[
            _col("d_datekey", DataType.INT, nullable=False),
            _col("d_year", DataType.INT, nullable=False),
            _col("d_month", DataType.INT, nullable=False),
            _col("d_weekday", DataType.STRING),
        ],
        primary_key=("d_datekey",),
    )
    store = TableDef(
        name="store",
        columns=[
            _col("st_storekey", DataType.INT, nullable=False),
            _col("st_name", DataType.STRING, nullable=False),
            _col("st_city", DataType.STRING),
            _col("st_size", DataType.INT),
        ],
        primary_key=("st_storekey",),
    )
    product = TableDef(
        name="product",
        columns=[
            _col("p_productkey", DataType.INT, nullable=False),
            _col("p_name", DataType.STRING, nullable=False),
            _col("p_category", DataType.STRING),
            _col("p_price", DataType.FLOAT),
        ],
        primary_key=("p_productkey",),
    )
    promotion = TableDef(
        name="promotion",
        columns=[
            _col("pr_promokey", DataType.INT, nullable=False),
            _col("pr_name", DataType.STRING),
            _col("pr_discount", DataType.FLOAT),
        ],
        primary_key=("pr_promokey",),
    )
    sales = TableDef(
        name="sales",
        columns=[
            _col("s_saleskey", DataType.INT, nullable=False),
            _col("s_datekey", DataType.INT, nullable=False),
            _col("s_storekey", DataType.INT, nullable=False),
            _col("s_productkey", DataType.INT, nullable=False),
            _col("s_promokey", DataType.INT),  # nullable: not all sales promoted
            _col("s_quantity", DataType.INT),
            _col("s_amount", DataType.FLOAT),
        ],
        primary_key=("s_saleskey",),
        foreign_keys=[
            ForeignKey(("s_datekey",), "date_dim", ("d_datekey",)),
            ForeignKey(("s_storekey",), "store", ("st_storekey",)),
            ForeignKey(("s_productkey",), "product", ("p_productkey",)),
            ForeignKey(("s_promokey",), "promotion", ("pr_promokey",)),
        ],
    )
    return Catalog([date_dim, store, product, promotion, sales])


#: Row counts at scale 1.
BASE_ROW_COUNTS: Dict[str, int] = {
    "date_dim": 60,
    "store": 12,
    "product": 40,
    "promotion": 8,
    "sales": 500,
}


def star_database(
    seed: int = 0,
    scale: float = 1.0,
) -> Database:
    """Build and populate the star-schema database deterministically."""
    catalog = star_catalog()
    database = Database(catalog)
    generator = DataGenerator(catalog, seed=seed)
    counts = {
        name: max(1, int(count * scale))
        for name, count in BASE_ROW_COUNTS.items()
    }
    generator.populate(database, counts)
    return database
