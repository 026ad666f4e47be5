"""In-memory row storage for one table.

Rows are plain Python tuples, positionally aligned with the table's column
definitions; ``None`` represents SQL NULL.  The storage layer validates types
on insert -- a batch at a time, column by column -- so that executor bugs
cannot be masked by dirty data.
"""

from __future__ import annotations

import datetime
from operator import itemgetter
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.catalog.schema import ColumnDef, DataType, TableDef
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


def _accepts(column: ColumnDef, kind: type) -> bool:
    """Does ``column`` accept a value of Python type ``kind``?

    Validity depends on a value's type alone (NULL is ``NoneType``), so a
    batch is validated by the set of types each column holds.
    """
    if kind is type(None):
        return column.nullable
    # bool is a subclass of int; keep INT columns free of booleans.
    if column.data_type is DataType.INT and issubclass(kind, bool):
        return False
    return issubclass(kind, _PYTHON_TYPES[column.data_type])


class StoredTable:
    """A heap of rows conforming to a :class:`TableDef`."""

    def __init__(self, definition: TableDef) -> None:
        self.definition = definition
        self._rows: List[Tuple] = []
        self._stats: TableStats | None = None
        #: Data version: advanced by the row count of every insert.
        #: Execution-result caches key on it to stay consistent.
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
        """Monotonic data version (number of rows inserted so far)."""
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
        """Insert one row: a batch of one."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Sequence[object]]) -> None:
        """Insert a batch after validating arity, types and NOT NULL.

        Validation runs column by column over the whole batch: a column
        passes when every Python type it holds is one it accepts.  The
        batch is atomic -- one invalid value stores nothing (rows,
        ``version`` and cached stats stay as they were) and raises the
        error of the first invalid value in row-major order.  A valid
        batch advances ``version`` by its length.
        """
        batch = [tuple(row) for row in rows]
        if not batch:
            return
        columns = self.definition.columns
        if set(map(len, batch)) != {len(columns)} or not all(
            _accepts(column, kind)
            for position, column in enumerate(columns)
            for kind in set(map(type, map(itemgetter(position), batch)))
        ):
            raise StorageError(self._first_rejection(batch))
        self._rows.extend(batch)
        self._stats = None
        self._version += len(batch)

    def _first_rejection(self, batch: List[Tuple]) -> str:
        """The error of ``batch``'s first invalid value, row by row."""
        columns = self.definition.columns
        for row in batch:
            if len(row) != len(columns):
                return (
                    f"{self.name}: expected {len(columns)} values, "
                    f"got {len(row)}"
                )
            for column, value in zip(columns, row):
                if _accepts(column, type(value)):
                    continue
                where = f"{self.name}.{column.name}"
                if value is None:
                    return f"{where}: NULL in NOT NULL column"
                if column.data_type is DataType.INT and isinstance(value, bool):
                    return f"{where}: got bool for INT column"
                return (
                    f"{where}: {value!r} is not a valid "
                    f"{column.data_type.value}"
                )
        raise AssertionError("no invalid value in a rejected batch")

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
