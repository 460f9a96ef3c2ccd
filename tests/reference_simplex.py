"""Reference oracle for the simplex: the plain Fraction phase-one tableau.

This is the package's earlier solver, kept verbatim in its arithmetic: the
same Bland entering and leaving rules over a Fraction tableau, pivoting by
division.  The package's fraction-free solver must return identical
results, witness and certificate included.
"""

from fractions import Fraction

from causal_transfer.simplex import FarkasCertificate, SimplexResult

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_solve(rows, rhs) -> SimplexResult:
    m = len(rows)
    n = len(rows[0]) if m else 0
    sign = [ONE] * m
    a = [list(row) for row in rows]
    b = list(rhs)
    for r in range(m):
        if b[r] < ZERO:
            sign[r] = -ONE
            a[r] = [-v for v in a[r]]
            b[r] = -b[r]

    if m == 0:
        return SimplexResult(True, (ZERO,) * n, None)

    tableau = [a[r] + [ONE if c == r else ZERO for c in range(m)] + [b[r]] for r in range(m)]
    basis = [n + r for r in range(m)]
    obj = [ZERO] * (n + m + 1)
    for r in range(m):
        for c in range(n + m + 1):
            obj[c] += tableau[r][c]
    for c in range(n, n + m):
        obj[c] -= ONE

    total = n + m
    while True:
        entering = next((c for c in range(total) if obj[c] > ZERO), None)
        if entering is None:
            break
        leaving = None
        best = None
        for r in range(m):
            coeff = tableau[r][entering]
            if coeff > ZERO:
                ratio = tableau[r][total] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leaving]
                ):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise RuntimeError("phase-one objective is bounded; this cannot happen")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for r in range(m):
            if r != leaving and tableau[r][entering] != ZERO:
                factor = tableau[r][entering]
                tableau[r] = [
                    v - factor * p for v, p in zip(tableau[r], tableau[leaving])
                ]
        if obj[entering] != ZERO:
            factor = obj[entering]
            obj = [v - factor * p for v, p in zip(obj, tableau[leaving])]
        basis[leaving] = entering

    artificial_mass = sum(
        tableau[r][total] for r in range(m) if basis[r] >= n
    )
    if artificial_mass == ZERO:
        x = [ZERO] * n
        for r, var in enumerate(basis):
            if var < n:
                x[var] = tableau[r][total]
        return SimplexResult(True, tuple(x), None)

    y = [(obj[n + r] + ONE) * sign[r] for r in range(m)]
    return SimplexResult(False, None, FarkasCertificate(tuple(y)))
