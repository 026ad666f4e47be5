"""Incremental, order-insensitive digests over canonical result bags.

The correctness harness compares result *bags* (multisets of rows).  The
historical path built a ``collections.Counter`` of canonical rows on both
sides of every comparison — an O(n) dict build per side per comparison,
repeated for every (query, mutant/rule) pair of a campaign.  A bag digest
replaces that with a commutative accumulator: each row contributes a
64-bit token derived from its canonical encoding, and tokens are folded
with addition (mod 2**64), which is order-insensitive by construction.
Equal bags therefore always produce equal digests, comparisons are O(1)
after a single O(n) pass per result, and the digest can be computed
incrementally as rows stream out of the executor.

Two independent accumulators (the token sum, and the sum of squared
tokens offset by an odd constant) plus the exact row count make
accidental collisions between *unequal* bags vanishingly unlikely; the
exact ``Counter`` check remains available for diagnostics
(:func:`repro.engine.results.diff_summary` still materializes both bags
when a mismatch needs explaining).

Tokens come from Python's built-in ``hash`` of the canonical row tuple.
``hash`` of strings is randomized per process (PYTHONHASHSEED), so
digests are **process-local**: they must never be written into
byte-deterministic artifacts (kill matrices, diff collects).  Within a
process they are stable, which is all the comparison path needs.
CPython's ``hash(-1) == hash(-2)`` is the one collision a wrong rule
could hit systematically, so a row holding a cell equal to -1 folds the
positions of those cells into its token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.engine.results import FLOAT_COMPARE_DIGITS

_MASK = (1 << 64) - 1
# Odd constant (2**64 / golden ratio) decorrelates the two accumulators.
_SALT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class BagDigest:
    """Order-insensitive fingerprint of a multiset of rows.

    Process-local (see module docstring); compare with ``==`` only
    against digests computed in the same process.
    """

    count: int
    acc1: int
    acc2: int

    def combine(self, other: "BagDigest") -> "BagDigest":
        """Digest of the bag union (used for incremental accumulation)."""
        return BagDigest(
            self.count + other.count,
            (self.acc1 + other.acc1) & _MASK,
            (self.acc2 + other.acc2) & _MASK,
        )


EMPTY_DIGEST = BagDigest(0, 0, 0)


def _minus_one_token(row: Sequence[object]) -> int:
    """Token of a canonical row that holds a cell equal to -1.

    ``hash(-1) == hash(-2)``, so ``hash((-1, "a")) == hash((-2, "a"))``;
    the positions of the -1 cells tell the two rows apart.  ``==`` keeps
    ``-1`` and ``-1.0`` in one token, as the exact bag does.
    """
    return hash(
        (row, tuple(i for i, value in enumerate(row) if value == -1))
    )


def digest_rows(rows: Iterable[Sequence[object]]) -> BagDigest:
    """Fold an iterable of raw rows into a :class:`BagDigest`.

    Rows are canonicalized first (float rounding, -0.0 folding) so two
    results that :func:`repro.engine.results.results_identical` would
    call equal always digest equally.  Canonicalization only ever
    rewrites ``float`` cells, and Python's ``hash`` is already invariant
    across numerically equal values of different types (``hash(1) ==
    hash(1.0)``, ``hash(-0.0) == hash(0.0)``), so float-free rows are
    hashed directly -- the common case skips the per-cell rebuild.
    """
    count = 0
    acc1 = 0
    acc2 = 0
    for row in rows:
        if float in map(type, row):
            # Inlined canonical_row: float cells round to
            # FLOAT_COMPARE_DIGITS with -0.0 folded to 0.0.
            row = tuple(
                (
                    rounded
                    if (rounded := round(value, FLOAT_COMPARE_DIGITS)) != 0.0
                    else 0.0
                )
                if type(value) is float
                else value
                for value in row
            )
        token = (
            _minus_one_token(row) if -1 in row else hash(row)
        ) & _MASK
        count += 1
        acc1 += token
        acc2 += (token * token + _SALT) & _MASK
    return BagDigest(count, acc1 & _MASK, acc2 & _MASK)


def digest_canonical_rows(rows: Iterable[Tuple]) -> BagDigest:
    """Like :func:`digest_rows` for rows already in canonical form."""
    count = 0
    acc1 = 0
    acc2 = 0
    for row in rows:
        token = (
            _minus_one_token(row) if -1 in row else hash(row)
        ) & _MASK
        count += 1
        acc1 += token
        acc2 += (token * token + _SALT) & _MASK
    return BagDigest(count, acc1 & _MASK, acc2 & _MASK)
