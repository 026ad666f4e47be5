"""Deterministic synthetic data generation driven by the catalog.

Given a :class:`TableDef` and a seeded RNG, :class:`DataGenerator` produces
rows that respect the schema: primary/unique keys are genuinely unique,
foreign keys reference existing rows of the referenced table, NOT NULL is
honoured, and nullable columns receive NULLs at a configurable rate (NULLs
matter: several outer-join transformation rules are only distinguishable from
buggy variants on data containing NULLs).

Generation is topologically ordered over foreign-key dependencies so that
referenced tables are populated first.

**The order of RNG calls is the data.**  One ``random.Random`` stream
feeds every table: first the string pool, then per table the foreign-key
pools, then the rows, row by row and column by column -- a NULL draw before
a nullable value, one draw per value, a rejected duplicate-key row's draws
included.  Every test database, golden result and pinned benchmark count is
a function of that order, so a change to it (one more call, a different
method, a reordered column) is a new database, not an optimisation.  The
golden digests in ``tests/test_datagen.py`` pin it.

Each table is generated from a *draw plan*: one zero-argument draw per
column, bound once from the public ``random.Random`` methods, and the
positions of each declared key that can collide, so a row costs one call
per column and one set lookup per checked key.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.schema import Catalog, DataType, SchemaError, TableDef
from repro.storage.database import Database

#: A zero-argument draw of one column's next value.
Draw = Callable[[], object]


@dataclass
class GenerationProfile:
    """Tunables for synthetic data generation."""

    null_rate: float = 0.08
    int_range: Tuple[int, int] = (0, 200)
    float_range: Tuple[float, float] = (0.0, 1000.0)
    string_length: int = 8
    string_pool_size: int = 40
    date_range: Tuple[int, int] = (730_000, 731_000)  # ordinal days
    #: Fraction of a referenced table's key values that foreign keys draw
    #: from.  Keeping this below 1.0 guarantees some parent rows have no
    #: children -- outer-join edge cases (NULL extension) then actually
    #: occur in the data, which correctness testing of outer-join rules
    #: depends on.
    fk_coverage: float = 0.85


class DataGenerator:
    """Seeded, schema-aware row generator."""

    def __init__(
        self,
        catalog: Catalog,
        seed: int = 0,
        profile: Optional[GenerationProfile] = None,
    ) -> None:
        self.catalog = catalog
        self.profile = profile or GenerationProfile()
        self._rng = random.Random(seed)
        self._string_pool = [
            "".join(
                self._rng.choice(string.ascii_lowercase)
                for _ in range(self.profile.string_length)
            )
            for _ in range(self.profile.string_pool_size)
        ]

    # -------------------------------------------------------------- draw plan

    def _scalar(self, data_type: DataType) -> Draw:
        """A draw of one non-NULL value of ``data_type``."""
        rng, profile = self._rng, self.profile
        # ``randint(a, b)`` is documented as ``randrange(a, b + 1)``: the
        # same stream, one Python call fewer.
        if data_type is DataType.INT:
            low, high = profile.int_range
            return partial(rng.randrange, low, high + 1)
        if data_type is DataType.FLOAT:
            uniform = rng.uniform
            low, high = profile.float_range
            return lambda: round(uniform(low, high), 2)
        if data_type is DataType.STRING:
            return partial(rng.choice, self._string_pool)
        if data_type is DataType.DATE:
            low, high = profile.date_range
            return partial(rng.randrange, low, high + 1)
        if data_type is DataType.BOOL:
            coin = rng.random
            return lambda: coin() < 0.5
        raise SchemaError(f"unsupported data type {data_type}")

    def _nullable(self, draw: Draw) -> Draw:
        """``draw`` behind a NULL draw at the profile's rate."""
        coin, rate = self._rng.random, self.profile.null_rate
        return lambda: None if coin() < rate else draw()

    def _draw_plan(
        self,
        table: TableDef,
        fk_sources: Dict[str, List[object]],
        surrogate: Optional[str],
        next_key: Draw,
    ) -> List[Draw]:
        """One draw per column of ``table``, in column order.

        A foreign-key column draws from its pool, the dense surrogate key
        is ``next_key``, any other key column draws a value that is never
        NULL, and every other column draws a NULL or a value.
        """
        key_columns = {name for key in table.all_keys() for name in key}
        draws: List[Draw] = []
        for column in table.columns:
            if column.name in fk_sources:
                draw = partial(self._rng.choice, fk_sources[column.name])
                nullable = column.nullable
            elif column.name == surrogate:
                draw, nullable = next_key, False
            else:
                draw = self._scalar(column.data_type)
                nullable = column.nullable and column.name not in key_columns
            draws.append(self._nullable(draw) if nullable else draw)
        return draws

    # ------------------------------------------------------------------- rows

    def generate_table(
        self,
        table: TableDef,
        row_count: int,
        referenced: Optional[Dict[str, List[Tuple]]] = None,
    ) -> List[Tuple]:
        """Generate ``row_count`` rows for ``table``.

        ``referenced`` maps already-populated table names to their rows, used
        to draw valid foreign-key values.
        """
        fk_sources = self._foreign_key_sources(table, referenced or {})
        # Dense surrogate keys keep join fan-outs realistic, and are unique
        # by construction: a key holding one is never checked.
        surrogate = None
        if len(table.primary_key) == 1:
            name = table.primary_key[0]
            if (
                name not in fk_sources
                and table.column(name).data_type is DataType.INT
            ):
                surrogate = name
        rows: List[Tuple] = []
        draws = self._draw_plan(
            table, fk_sources, surrogate, lambda: len(rows) + 1
        )
        names = table.column_names
        checks = [
            (itemgetter(*map(names.index, key)), set())
            for key in table.all_keys()
            if surrogate not in key
        ]

        attempts_budget = max(100, row_count * 50)
        while len(rows) < row_count and attempts_budget > 0:
            attempts_budget -= 1
            row = tuple([draw() for draw in draws])
            if checks:
                keys = [(key(row), seen) for key, seen in checks]
                if any(value in seen for value, seen in keys):
                    continue
                for value, seen in keys:
                    seen.add(value)
            rows.append(row)
        if len(rows) < row_count:
            raise SchemaError(
                f"could not generate {row_count} unique rows for "
                f"{table.name!r}; key domains too small"
            )
        return rows

    def _foreign_key_sources(
        self, table: TableDef, referenced: Dict[str, List[Tuple]]
    ) -> Dict[str, List[object]]:
        """Map FK column name -> list of candidate values from the ref table."""
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

    # --------------------------------------------------------------- database

    def populate(
        self, database: Database, row_counts: Dict[str, int]
    ) -> None:
        """Populate ``database`` in FK-dependency order."""
        generated: Dict[str, List[Tuple]] = {}
        for table in _topological_order(self.catalog):
            count = row_counts.get(table.name, 0)
            rows = self.generate_table(table, count, generated)
            generated[table.name] = rows
            database.insert(table.name, rows)


def _topological_order(catalog: Catalog) -> List[TableDef]:
    """Tables sorted so every FK target precedes its referencing table."""
    order: List[TableDef] = []
    placed: set = set()
    remaining = {table.name: table for table in catalog.tables()}
    while remaining:
        progressed = False
        for name in list(remaining):
            table = remaining[name]
            deps = {fk.ref_table for fk in table.foreign_keys} - {name}
            if deps <= placed:
                order.append(table)
                placed.add(name)
                del remaining[name]
                progressed = True
        if not progressed:
            raise SchemaError(
                "cyclic foreign-key dependencies among: "
                + ", ".join(sorted(remaining))
            )
    return order
