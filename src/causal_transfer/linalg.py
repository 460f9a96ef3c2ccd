"""Exact integer linear algebra shared by the solvers.

Rational input is brought to integers by clearing denominators, and the
kernels here work on Python ints only:

- pivot: one fraction-free Gauss-Jordan pivot (Bareiss 1968).  A matrix
  is kept as integer rows over one running denominator d and stands for
  rows / d; each pivot divides exactly, so no gcd is ever taken.  The
  simplex tableau, the class-probability solve and solve() all use it.
- solve: a nonsingular system with several right-hand sides at once.
- Echelon: incremental test of whether a vector is independent of the
  ones added before it.
- primitive: the coprime integer vector with a rational vector's direction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def common_denominator(values) -> int:
    """Least common multiple of the denominators of ints and Fractions."""
    return lcm(*(v.denominator for v in values))


def scaled_integers(values, scale: int) -> list[int]:
    """values * scale as ints; scale must be a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def primitive(vec) -> tuple[int, ...]:
    """Coprime integers with the direction of a rational vector.

    The zero vector stays zero.
    """
    ints = scaled_integers(vec, common_denominator(vec))
    g = gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple(v // g for v in ints)


def pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Fraction-free Gauss-Jordan pivot on rows[r][c], in place.

    The rows stand for rows / d.  Every other row becomes
    (p * row - row[c] * rows[r]) / d with p = rows[r][c]; the division is
    exact, since every entry is a minor of the starting integer matrix.
    Returns p, the new common denominator; the pivot row is left as it is.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        elif p != d:
            rows[i] = [p * v // d for v in row]
    return p


def solve(matrix, rhs) -> list[tuple[Fraction, ...]] | None:
    """X with matrix . X = rhs, for a square rational matrix.

    rhs holds one row per equation, with one entry per right-hand side;
    the result row k holds unknown k for every right-hand side.  Returns
    None when the matrix is singular.
    """
    n = len(matrix)
    rows = [primitive(list(a) + list(b)) for a, b in zip(matrix, rhs)]
    d = 1
    pivot_row = []
    for c in range(n):
        r = next((k for k in range(n) if k not in pivot_row and rows[k][c]), None)
        if r is None:
            return None
        d = pivot(rows, r, c, d)
        pivot_row.append(r)
    return [tuple(Fraction(v, d) for v in rows[r][n:]) for r in pivot_row]


class Echelon:
    """Integer row echelon form, grown one vector at a time."""

    def __init__(self):
        self._rows: list[tuple[int, tuple[int, ...]]] = []  # (pivot column, row)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, vec) -> bool:
        """Keep vec and return True if it is independent of the rows so far."""
        v = primitive(vec)
        for c, row in self._rows:
            f = v[c]
            if f:
                p = row[c]
                v = [p * x - f * y for x, y in zip(v, row)]
        col = next((c for c, x in enumerate(v) if x), None)
        if col is None:
            return False
        self._rows.append((col, primitive(v)))
        return True
