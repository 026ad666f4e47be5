"""Order-insensitive digests over canonical result bags.

The correctness harness compares result *bags* (multisets of rows).  A
``collections.Counter`` of canonical rows per side per comparison is an
O(n) dict build for every (query, mutant/rule) pair of a campaign.  A
bag digest is a commutative accumulator instead: each row contributes a
64-bit token derived from its canonical form, folded with addition (mod
2**64), so equal bags always produce equal digests in any row order, and
a comparison is O(1) after one pass per result: :func:`digest_columns`
over a result's column lists, :func:`digest_rows` over fetched rows.

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
Two equal hashes of unequal cells are systematic rather than accidental:
CPython's ``hash(-1) == hash(-2)`` (``hash((-1, "a")) == hash((-2,
"a"))``), and ``hash("") == hash(0)`` (so ``("", 1)`` would meet ``(0,
1)``, ``(False, 1)`` and ``(0.0, 1)``).  A row holding a cell equal to -1
or an empty string therefore hashes together with the positions of those
cells; ``==`` keeps ``-1`` and ``-1.0`` in one token, as the exact bag
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Dict, Iterable, Iterator, List, Sequence

from repro.engine.results import canonical_value

_MASK = (1 << 64) - 1
# Odd constant (2**64 / golden ratio) decorrelates the two accumulators.
_SALT = 0x9E3779B97F4A7C15
# Rows tokenised at a time: bounds what a digest holds, whatever the bag.
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


def _tokens(columns: Sequence[Sequence[object]], length: int) -> List[int]:
    """One token per row of at most ``_CHUNK`` rows, given by column.

    A result's columns are more regular than its rows: one ``set(column)``
    tells whether it holds a ``float``, a -1 or an empty string.  Only
    ``float`` cells have another canonical form, and ``hash`` is already
    invariant across numerically equal values of different types
    (``hash(1) == hash(1.0)``, ``hash(-0.0) == hash(0.0)``), so only a
    column with a float is rebuilt.
    """
    if not columns:
        return [hash(())] * length
    columns = list(columns)
    marked: Dict[int, List[int]] = {}  # row -> positions of its -1 and "" cells
    for position, column in enumerate(columns):
        distinct: Iterable[object] = set(column)
        empty = "" in distinct
        if float in map(type, distinct):
            if 2 * len(distinct) <= len(column):
                # A join repeats its inputs' cells: round each value once.
                canonical = {value: canonical_value(value) for value in distinct}
                column = list(map(canonical.__getitem__, column))
                distinct = canonical.values()
            else:  # an all-distinct column must not pay for a map
                column = distinct = list(map(canonical_value, column))
            columns[position] = column
        if empty or -1 in distinct:  # after rounding: -0.9999999 is a -1 too
            for index, value in enumerate(column):
                if value == -1 or value == "":
                    marked.setdefault(index, []).append(position)
    # zip hands map one reused tuple: no row of the chunk is kept.
    tokens = list(map(hash, zip(*columns)))
    for index, positions in marked.items():
        row = tuple(column[index] for column in columns)
        tokens[index] = hash((row, tuple(positions)))
    return tokens


def _fold(token_lists: Iterable[List[int]]) -> BagDigest:
    count = acc1 = acc2 = 0
    for tokens in token_lists:
        count += len(tokens)
        acc1 += sum(tokens)
        acc2 += sum(map(mul, tokens, tokens))
    return BagDigest(count, acc1 & _MASK, (acc2 + count * _SALT) & _MASK)


def digest_rows(rows: Iterable[Sequence[object]]) -> BagDigest:
    """Fold an iterable of raw rows into a :class:`BagDigest`.

    Rows are canonicalized first (float rounding, -0.0 folding) so two
    results that :func:`repro.engine.results.results_identical` would
    call equal always digest equally.  Each chunk is transposed once and
    handed to the column kernel :func:`digest_columns` shares.
    """
    return _fold(_row_tokens(iter(rows)))


def _row_tokens(rows: Iterator[Sequence[object]]) -> Iterator[List[int]]:
    while chunk := list(islice(rows, _CHUNK)):
        # zip() cuts every row to the narrowest, so a ragged chunk folds
        # one width at a time (a bag digest is a sum over its rows).
        widths = set(map(len, chunk))
        for width in widths:
            rows_of_width = (
                chunk if len(widths) == 1
                else [row for row in chunk if len(row) == width]
            )
            yield _tokens(list(zip(*rows_of_width)), len(rows_of_width))


def digest_columns(data: Sequence[Sequence[object]], length: int) -> BagDigest:
    """:func:`digest_rows` of the ``length`` rows laid out as ``data``,
    one sequence per column, without building a row."""
    chunk = _CHUNK
    if length <= chunk:
        return _fold([_tokens(data, length)])
    return _fold(
        _tokens(
            [column[start:start + chunk] for column in data],
            min(chunk, length - start),
        )
        for start in range(0, length, chunk)
    )
