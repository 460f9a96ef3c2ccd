"""Exact LP feasibility with Farkas certificates.

Solves systems A x = b, x >= 0 over rationals using a phase-one simplex
with Bland's rule (anti-cycling, fully deterministic).  The tableau is
kept fraction-free: denominators are cleared with one common scale, and
integer rows over a single running denominator are pivoted with
linalg.pivot.  A feasible system yields a basic feasible point; an
infeasible one yields a dual vector y with y.A <= 0 and y.b > 0, which
certifies infeasibility by a single exact evaluation, independent of the
solver run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers proving A x = b, x >= 0 has no solution.

    Contracting the constraints with y gives the single inequality
    (y.A) x = y.b with y.A <= 0 componentwise and y.b > 0, impossible for
    x >= 0.
    """

    y: tuple[Fraction, ...]

    def verify(self, rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
        if len(self.y) != len(rows):
            return False
        n = len(rows[0]) if rows else 0
        for col in range(n):
            if sum(yk * row[col] for yk, row in zip(self.y, rows)) > ZERO:
                return False
        return sum(yk * bk for yk, bk in zip(self.y, rhs)) > ZERO


@dataclass(frozen=True)
class SimplexResult:
    feasible: bool
    point: tuple[Fraction, ...] | None
    certificate: FarkasCertificate | None


def solve_equality_feasibility(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> SimplexResult:
    """Find x >= 0 with rows . x = rhs, or a Farkas certificate.

    Phase-one simplex: rows are sign-normalized so b >= 0, one artificial
    variable per row forms the starting basis, and the artificial mass is
    minimized under Bland's pivoting rule.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return SimplexResult(True, (ZERO,) * n, None)

    # One scale for the whole system: scaling all rows alike scales every
    # artificial alike, so the phase-one objective, the pivot path and the
    # dual y are those of the rational system.  Sign-normalize, and
    # remember the flips so the certificate speaks about the original rows.
    scale = linalg.common_denominator([v for row in rows for v in row] + list(rhs))
    sign = [-1 if b < 0 else 1 for b in rhs]
    total = n + m
    tableau = []
    for r in range(m):
        row = linalg.scaled_integers(list(rows[r]) + [rhs[r]], scale)
        if sign[r] < 0:
            row = [-v for v in row]
        artificial = [0] * m
        artificial[r] = 1
        tableau.append(row[:n] + artificial + row[n:])
    # Objective row last: reduced costs z_j - c_j of minimizing the sum of
    # artificials from the starting basis, i.e. column sums minus the unit
    # cost of each artificial.
    obj = [sum(col) for col in zip(*tableau)]
    for c in range(n, total):
        obj[c] = 0
    tableau.append(obj)
    basis = [n + r for r in range(m)]
    d = 1  # the tableau stands for tableau / d

    while True:
        obj = tableau[m]
        entering = next((c for c in range(total) if obj[c] > 0), None)
        if entering is None:
            break
        # Ratio test by cross-multiplication; Bland tie-break on the
        # smallest basis variable index.
        leaving = None
        for r in range(m):
            coeff = tableau[r][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = r
                    continue
                ratio = tableau[r][total] * tableau[leaving][entering]
                best = tableau[leaving][total] * coeff
                if ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    leaving = r
        if leaving is None:
            raise RuntimeError("phase-one objective is bounded; this cannot happen")
        d = linalg.pivot(tableau, leaving, entering, d)
        basis[leaving] = entering

    if all(tableau[r][total] == 0 for r in range(m) if basis[r] >= n):
        x = [ZERO] * n
        for r, var in enumerate(basis):
            if var < n:
                x[var] = Fraction(tableau[r][total], d)
        return SimplexResult(True, tuple(x), None)

    # Infeasible: read the dual y off the final reduced costs of the
    # artificial columns (z_j - c_j = y_r - 1 for artificial r), then undo
    # the sign normalization.
    obj = tableau[m]
    y = [(Fraction(obj[n + r], d) + ONE) * sign[r] for r in range(m)]
    cert = FarkasCertificate(tuple(y))
    if not cert.verify(rows, rhs):
        raise RuntimeError("internal error: Farkas certificate failed verification")
    return SimplexResult(False, None, cert)
