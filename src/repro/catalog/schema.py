"""Schema objects: data types, columns, tables, keys and foreign keys.

The catalog is the static metadata layer the rest of the system builds on.
Logical operators consult it for column types and declared constraints
(primary keys, unique keys, foreign keys, NOT NULL); several transformation
rules have preconditions that key off these constraints -- e.g. the rule that
pulls a Group-By above a join requires a unique key on the non-aggregated
side, and eager aggregation uses foreign-key metadata (see Section 7 of the
paper for the discussion of schema-dependent rules).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class DataType(enum.Enum):
    """The scalar data types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"  # stored as ordinal int, formatted on output
    BOOL = "bool"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.FLOAT, DataType.DATE)


@dataclass(frozen=True)
class ColumnDef:
    """Definition of a table column in the catalog."""

    name: str
    data_type: DataType
    nullable: bool = True

    def __str__(self) -> str:
        null = "NULL" if self.nullable else "NOT NULL"
        return f"{self.name} {self.data_type.value.upper()} {null}"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: ``columns`` reference ``ref_table.ref_columns``.

    When every referencing column is declared NOT NULL the constraint
    guarantees each referencing row joins to exactly one referenced row --
    the property eager-aggregation style rules rely on.
    """

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise ValueError(
                "foreign key column count mismatch: "
                f"{self.columns} vs {self.ref_columns}"
            )


class SchemaError(Exception):
    """Raised for inconsistent schema definitions or unknown names."""


@dataclass
class TableDef:
    """Definition of a base table: columns plus declared constraints."""

    name: str
    columns: List[ColumnDef]
    primary_key: Tuple[str, ...] = ()
    unique_keys: List[Tuple[str, ...]] = field(default_factory=list)
    foreign_keys: List[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(f"duplicate column {col.name!r} in {self.name!r}")
            seen.add(col.name)
        for key in self.all_keys():
            for name in key:
                if name not in seen:
                    raise SchemaError(
                        f"key column {name!r} not in table {self.name!r}"
                    )
        for fk in self.foreign_keys:
            for name in fk.columns:
                if name not in seen:
                    raise SchemaError(
                        f"foreign key column {name!r} not in table {self.name!r}"
                    )

    @property
    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def column(self, name: str) -> ColumnDef:
        """Return the :class:`ColumnDef` named ``name``."""
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        return any(col.name == name for col in self.columns)

    def all_keys(self) -> List[Tuple[str, ...]]:
        """All declared unique keys, the primary key first if present."""
        keys: List[Tuple[str, ...]] = []
        if self.primary_key:
            keys.append(self.primary_key)
        keys.extend(self.unique_keys)
        return keys

    def __str__(self) -> str:
        parts = [str(col) for col in self.columns]
        if self.primary_key:
            parts.append(f"PRIMARY KEY ({', '.join(self.primary_key)})")
        for key in self.unique_keys:
            parts.append(f"UNIQUE ({', '.join(key)})")
        for fk in self.foreign_keys:
            parts.append(
                f"FOREIGN KEY ({', '.join(fk.columns)}) REFERENCES "
                f"{fk.ref_table} ({', '.join(fk.ref_columns)})"
            )
        body = ",\n  ".join(parts)
        return f"CREATE TABLE {self.name} (\n  {body}\n)"


class Catalog:
    """A named collection of :class:`TableDef` objects.

    The catalog is the single source of truth for schema metadata.  It is
    deliberately independent of the storage layer: the optimizer and the
    query generators only ever need the catalog (plus statistics), never the
    data itself.
    """

    def __init__(self, tables: Optional[Sequence[TableDef]] = None) -> None:
        self._tables: Dict[str, TableDef] = {}
        for table in tables or []:
            self.add_table(table)

    def add_table(self, table: TableDef) -> None:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already defined")
        self._tables[table.name] = table

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table named {name!r}") from None

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    def tables(self) -> List[TableDef]:
        return list(self._tables.values())

    def validate(self) -> None:
        """Check referential consistency of all foreign keys."""
        for table in self._tables.values():
            for fk in table.foreign_keys:
                if fk.ref_table not in self._tables:
                    raise SchemaError(
                        f"{table.name}: foreign key references unknown table "
                        f"{fk.ref_table!r}"
                    )
                ref = self._tables[fk.ref_table]
                for name in fk.ref_columns:
                    if not ref.has_column(name):
                        raise SchemaError(
                            f"{table.name}: foreign key references unknown "
                            f"column {fk.ref_table}.{name}"
                        )
                if tuple(fk.ref_columns) not in ref.all_keys():
                    raise SchemaError(
                        f"{table.name}: foreign key target "
                        f"{fk.ref_table}({', '.join(fk.ref_columns)}) is not "
                        "a declared key"
                    )

    def ddl(self) -> str:
        """Render the whole catalog as CREATE TABLE statements."""
        return "\n\n".join(str(table) for table in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)
