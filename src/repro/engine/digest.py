"""Order-insensitive digests over canonical result bags.

The correctness harness compares result *bags* (multisets of rows).  A
``collections.Counter`` of canonical rows per side per comparison is an
O(n) dict build for every (query, mutant/rule) pair of a campaign.  A
bag digest is a commutative accumulator instead: each row contributes a
64-bit token derived from its canonical form, folded with addition (mod
2**64), so equal bags always produce equal digests in any row order, and
a comparison is O(1) after one pass per result (:func:`digest_rows`).

Two independent accumulators (the token sum, and the sum of squared
tokens offset by an odd constant) plus the exact row count make
accidental collisions between *unequal* bags vanishingly unlikely; the
exact ``Counter`` is still built when a mismatch needs explaining
(:func:`repro.engine.results.diff_summary`).

Tokens come from Python's built-in ``hash`` of the canonical row tuple.
``hash`` of strings is randomized per process (PYTHONHASHSEED), so
digests are **process-local**: they must never be written into
byte-deterministic artifacts (kill matrices, diff collects).  Within a
process they are stable, which is all the comparison path needs.
CPython's ``hash(-1) == hash(-2)`` is the one collision a wrong rule
could hit systematically (``hash((-1, "a")) == hash((-2, "a"))``), so a
row holding a cell equal to -1 hashes together with the positions of
those cells; ``==`` keeps ``-1`` and ``-1.0`` in one token, as the exact
bag does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Dict, Iterable, List, Sequence

from repro.engine.results import canonical_value

_MASK = (1 << 64) - 1
# Odd constant (2**64 / golden ratio) decorrelates the two accumulators.
_SALT = 0x9E3779B97F4A7C15
# Rows transposed at a time: bounds what a digest holds, whatever the bag.
_CHUNK = 4096


@dataclass(frozen=True)
class BagDigest:
    """Order-insensitive fingerprint of a multiset of rows.

    Process-local (see module docstring); compare with ``==`` only
    against digests computed in the same process.
    """

    count: int
    acc1: int
    acc2: int


def _chunk_tokens(chunk: List[Sequence[object]]) -> List[int]:
    """One token per row of at most ``_CHUNK`` rows of one width, by column.

    A result's columns are more regular than its rows: one ``set(column)``
    tells whether it holds a ``float`` or a -1.  Only ``float`` cells have
    another canonical form, and ``hash`` is already invariant across
    numerically equal values of different types (``hash(1) == hash(1.0)``,
    ``hash(-0.0) == hash(0.0)``), so only a column with a float is
    rebuilt, and a chunk with none is hashed row by row as it came.
    """
    columns: List[Sequence[object]] = list(zip(*chunk))
    rebuilt = False
    minus_one: Dict[int, List[int]] = {}  # row -> positions of its -1 cells
    for position, column in enumerate(columns):
        distinct: Iterable[object] = set(column)
        if float in map(type, distinct):
            rebuilt = True
            if 2 * len(distinct) <= len(column):
                # A join repeats its inputs' cells: round each value once.
                canonical = {value: canonical_value(value) for value in distinct}
                column = list(map(canonical.__getitem__, column))
                distinct = canonical.values()
            else:  # an all-distinct column must not pay for a map
                column = distinct = list(map(canonical_value, column))
            columns[position] = column
        if -1 in distinct:  # after rounding: -0.9999999 is a -1 too
            for index, value in enumerate(column):
                if value == -1:
                    minus_one.setdefault(index, []).append(position)
    # zip hands map one reused tuple: no canonical copy of the chunk.
    tokens = list(map(hash, zip(*columns) if rebuilt else chunk))
    for index, positions in minus_one.items():
        row = (
            tuple(column[index] for column in columns) if rebuilt
            else chunk[index]
        )
        tokens[index] = hash((row, tuple(positions)))
    return tokens


def digest_rows(rows: Iterable[Sequence[object]]) -> BagDigest:
    """Fold an iterable of raw rows into a :class:`BagDigest`.

    Rows are canonicalized first (float rounding, -0.0 folding) so two
    results that :func:`repro.engine.results.results_identical` would
    call equal always digest equally.
    """
    rows = iter(rows)
    count = acc1 = acc2 = 0
    while chunk := list(islice(rows, _CHUNK)):
        # zip() cuts every row to the narrowest, so a ragged chunk folds
        # one width at a time (a bag digest is a sum over its rows).
        widths = set(map(len, chunk))
        for width in widths:
            tokens = _chunk_tokens(
                chunk if len(widths) == 1
                else [row for row in chunk if len(row) == width]
            )
            count += len(tokens)
            acc1 += sum(tokens)
            acc2 += sum(map(mul, tokens, tokens))
    return BagDigest(count, acc1 & _MASK, (acc2 + count * _SALT) & _MASK)
