"""In-memory row storage for one table.

Rows are plain Python tuples, positionally aligned with the table's column
definitions; ``None`` represents SQL NULL.  The storage layer validates types
on insert so that executor bugs cannot be masked by dirty data.
"""

from __future__ import annotations

import datetime
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.catalog.schema import DataType, TableDef
from repro.catalog.stats import TableStats


class StorageError(Exception):
    """Raised when a row violates the table's schema."""


_PYTHON_TYPES = {
    DataType.INT: (int,),
    DataType.FLOAT: (int, float),
    DataType.STRING: (str,),
    DataType.DATE: (int, datetime.date),
    DataType.BOOL: (bool,),
}


def _check_value(table: str, column_name: str, data_type: DataType, value: object):
    if value is None:
        return
    allowed = _PYTHON_TYPES[data_type]
    # bool is a subclass of int; keep INT columns free of booleans.
    if data_type is DataType.INT and isinstance(value, bool):
        raise StorageError(
            f"{table}.{column_name}: got bool for INT column"
        )
    if not isinstance(value, allowed):
        raise StorageError(
            f"{table}.{column_name}: {value!r} is not a valid "
            f"{data_type.value}"
        )


class StoredTable:
    """A heap of rows conforming to a :class:`TableDef`."""

    def __init__(self, definition: TableDef) -> None:
        self.definition = definition
        self._rows: List[Tuple] = []
        self._stats: TableStats | None = None
        #: Data version: bumped on every insert.  Execution-result caches
        #: key on it to stay consistent.
        self._version = 0
        self._column_cache: List[list] | None = None
        #: Rows of ``_rows`` the column snapshot holds: the first this many.
        self._cached_rows = 0

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def rows(self) -> List[Tuple]:
        return self._rows

    @property
    def version(self) -> int:
        """Monotonic data version (number of mutations so far)."""
        return self._version

    @property
    def has_column_cache(self) -> bool:
        """Has a columnar snapshot been built?  A scan then reads it,
        extended by any rows inserted since, instead of transposing the
        whole table."""
        return self._column_cache is not None

    def column_data(self) -> List[list]:
        """Struct-of-arrays snapshot: one Python list per column.

        Built on the first read, then shared by every columnar scan of
        this table -- across plans, batches and whole campaigns.  A read
        after inserts extends it with only the rows inserted since, into
        new lists (``column + added``): results and cached executions may
        hold the old lists, so a snapshot list is never mutated, and
        callers must treat the returned lists as immutable too.
        """
        if self._column_cache is None:
            self._column_cache = [[] for _ in self.definition.columns]
        if self._cached_rows < len(self._rows):
            added = zip(*self._rows[self._cached_rows:])
            self._column_cache = [
                column + list(values)
                for column, values in zip(self._column_cache, added)
            ]
            self._cached_rows = len(self._rows)
        return self._column_cache

    def insert(self, row: Sequence[object]) -> None:
        """Insert one row after validating arity, types and NOT NULL."""
        columns = self.definition.columns
        if len(row) != len(columns):
            raise StorageError(
                f"{self.name}: expected {len(columns)} values, got {len(row)}"
            )
        for col, value in zip(columns, row):
            if value is None and not col.nullable:
                raise StorageError(
                    f"{self.name}.{col.name}: NULL in NOT NULL column"
                )
            _check_value(self.name, col.name, col.data_type, value)
        self._rows.append(tuple(row))
        self._stats = None
        self._version += 1

    def insert_many(self, rows: Iterable[Sequence[object]]) -> None:
        for row in rows:
            self.insert(row)

    def stats(self) -> TableStats:
        """Statistics over the current contents (computed lazily, cached)."""
        if self._stats is None:
            self._stats = TableStats.from_rows(
                self.definition.column_names, self._rows
            )
        return self._stats

    def scan(self) -> Iterator[Tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._rows)
