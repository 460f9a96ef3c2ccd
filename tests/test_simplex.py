import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_simplex import reference_solve

import causal_transfer as ct
from causal_transfer import stochastic
from causal_transfer.simplex import solve_equality_feasibility

F = Fraction


def frac_rows(rows):
    return [[F(v) for v in row] for row in rows]


def check(rows, rhs):
    return solve_equality_feasibility(frac_rows(rows), [F(v) for v in rhs])


def residual(rows, rhs, x):
    return [sum(F(a) * xi for a, xi in zip(row, x)) - F(b) for row, b in zip(rows, rhs)]


def test_simple_feasible_system():
    rows = [[1, 1, 0], [0, 1, 1]]
    rhs = [1, 1]
    res = check(rows, rhs)
    assert res.feasible
    assert all(v == 0 for v in residual(rows, rhs, res.point))
    assert all(v >= 0 for v in res.point)


def test_negative_rhs_is_normalized():
    rows = [[-1, 0], [1, 1]]
    rhs = [-3, 5]
    res = check(rows, rhs)
    assert res.feasible
    assert res.point == (F(3), F(2))


def test_infeasible_sums():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    rows = [[1, 1], [1, 1]]
    rhs = [1, 2]
    res = check(rows, rhs)
    assert not res.feasible
    assert res.certificate.verify(frac_rows(rows), [F(1), F(2)])


def test_infeasible_by_sign():
    # x1 - x2 = -1 with a second row forcing x1 = x2.
    rows = [[1, -1], [1, -1]]
    rhs = [-1, 0]
    res = check(rows, rhs)
    assert not res.feasible
    assert res.certificate.verify(frac_rows(rows), [F(-1), F(0)])


def test_certificate_rejects_wrong_vector():
    rows = frac_rows([[1, 1], [1, 1]])
    rhs = [F(1), F(2)]
    res = solve_equality_feasibility(rows, rhs)
    bad = type(res.certificate)(tuple(-y for y in res.certificate.y))
    assert not bad.verify(rows, rhs)


def test_deterministic_witness():
    rows = [[1, 1, 1, 1], [1, 0, 1, 0]]
    rhs = [1, F(1, 2)]
    a = check(rows, rhs)
    b = check(rows, rhs)
    assert a.feasible and a.point == b.point


def test_degenerate_rows_tolerated():
    # A redundant all-zero row with zero rhs is harmless.
    rows = [[0, 0], [1, 1]]
    rhs = [0, 1]
    res = check(rows, rhs)
    assert res.feasible


def test_fractional_data():
    rows = [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]
    rhs = [F(5, 9), F(1, 2)]
    res = check(rows, rhs)
    assert res.feasible
    assert all(v == 0 for v in residual(rows, rhs, res.point))


# ---------------------------------------------------------------------------
# Differential checks: the Fraction reference tableau and a float LP.


small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def rational_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(small_rationals, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        # feasible by construction: the image of a nonnegative point
        x = draw(st.lists(st.builds(F, st.integers(0, 3), st.integers(1, 2)),
                          min_size=n, max_size=n))
        rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(small_rationals, min_size=m, max_size=m))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_identical_to_fraction_reference(system):
    rows, rhs = system
    res = solve_equality_feasibility(rows, rhs)
    assert res == reference_solve(rows, rhs)
    values = res.point if res.feasible else res.certificate.y
    assert all(type(v) is F for v in values)


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_verdict_matches_float_lp(system):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rows, rhs = system
    res = solve_equality_feasibility(rows, rhs)
    lp = linprog(
        c=[0.0] * len(rows[0]),
        A_eq=[[float(v) for v in row] for row in rows],
        b_eq=[float(b) for b in rhs],
        bounds=(0, None),
        method="highs",
    )
    assert lp.status in (0, 2)  # solved, or proven infeasible
    assert res.feasible == (lp.status == 0)


def noisy_singlet(visibility):
    """The 3-setting singlet at (0, pi/3, 2pi/3) mixed with white noise."""
    table = ct.singlet_table((0.0, math.pi / 3, 2 * math.pi / 3))
    uniform = F(1, table.layout.n_outputs)
    rows = tuple(
        tuple(visibility * p + (1 - visibility) * uniform for p in row)
        for row in table.rows
    )
    return stochastic.TransitionTable(table.layout, rows)


def test_pinned_witness_at_visibility_16_20():
    report = ct.certify_weak_signal(noisy_singlet(F(16, 20)), ct.bell_partition())
    assert not report.weak_signal
    assert report.feasibility.witness.weights == {
        0: F(3, 20), 4203: F(3, 20), 23535: F(3, 20), 73425: F(1, 20),
        188718: F(1, 20), 238608: F(3, 20), 257940: F(3, 20), 262143: F(3, 20),
    }


def test_pinned_certificate_at_visibility_18_20():
    report = ct.certify_weak_signal(noisy_singlet(F(18, 20)), ct.bell_partition())
    assert report.weak_signal
    minus_nine = {5, 6, 8, 11, 17, 22, 30, 33}
    assert report.certificate.y == tuple(
        F(-9) if k in minus_nine else F(1) for k in range(37)
    )
    assert report.feasibility.verify()
