"""Aggregate functions and aggregate calls.

Aggregates appear only inside Group-By/Aggregate operators (never nested in
scalar expressions).  The columnar executor computes them
(``repro.engine.columnar._vector_aggregate``); each function carries the
metadata the eager/lazy aggregation transformation rules need: whether the
aggregate is *decomposable* (can be computed as partial aggregates combined
by a second aggregation) and what the combining function is -- e.g. partial
SUMs combine with SUM, partial COUNTs combine with SUM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.catalog.schema import DataType
from repro.expr.expressions import Expr, expression_type


class AggregateFunction(enum.Enum):
    COUNT = "COUNT"        # COUNT(expr): non-null inputs
    COUNT_STAR = "COUNT(*)"
    SUM = "SUM"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"

    @property
    def is_decomposable(self) -> bool:
        """Can this aggregate be split into partial + combining phases?

        AVG is only decomposable via a SUM/COUNT rewrite, which the
        GbAggSplit rule performs explicitly, so it reports False here.
        """
        return self is not AggregateFunction.AVG

    @property
    def combiner(self) -> "AggregateFunction":
        """Function that combines partial results of this aggregate."""
        if self in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return AggregateFunction.SUM
        if self is AggregateFunction.AVG:
            raise ValueError("AVG is not directly decomposable")
        return self


@dataclass(frozen=True)
class AggregateCall:
    """One aggregate invocation: function plus optional argument expression.

    ``argument`` is ``None`` exactly for COUNT(*).
    """

    function: AggregateFunction
    argument: Optional[Expr] = None

    def __post_init__(self) -> None:
        if self.function is AggregateFunction.COUNT_STAR:
            if self.argument is not None:
                raise ValueError("COUNT(*) takes no argument")
        elif self.argument is None:
            raise ValueError(f"{self.function.value} requires an argument")

    def result_type(self) -> DataType:
        if self.function in (
            AggregateFunction.COUNT,
            AggregateFunction.COUNT_STAR,
        ):
            return DataType.INT
        if self.function is AggregateFunction.AVG:
            return DataType.FLOAT
        assert self.argument is not None
        arg_type = expression_type(self.argument)
        if self.function is AggregateFunction.SUM and arg_type is DataType.INT:
            return DataType.INT
        return arg_type

    def result_nullable(self) -> bool:
        """COUNT variants return 0 (never NULL); the rest can return NULL."""
        return self.function not in (
            AggregateFunction.COUNT,
            AggregateFunction.COUNT_STAR,
        )

    def __str__(self) -> str:
        if self.function is AggregateFunction.COUNT_STAR:
            return "COUNT(*)"
        return f"{self.function.value}({self.argument})"
