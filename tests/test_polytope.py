import math
from fractions import Fraction
from itertools import product

import pytest

import causal_transfer as ct
from causal_transfer import LinearConstraint, TransferDistribution, TransitionTable

F = Fraction
HALF = F(1, 2)


def evaluate_point(ineq, point):
    value = sum(c * point[sym] for sym, c in ineq.coefficients)
    return value - ineq.bound


class TestBuildAndSolve:
    def test_coin_problem_shape(self, coin_table):
        problem = ct.build_consistency_problem(coin_table)
        assert len(problem.variables) == 4
        rows, rhs = problem.equation_rows()
        # four transition equations plus normalization
        assert len(rows) == 5
        assert rhs[-1] == 1

    def test_coin_both_named_witnesses(self, binary_layout, coin_table):
        problem = ct.build_consistency_problem(coin_table)
        degenerate = TransferDistribution(binary_layout, {0: HALF, 1: HALF})
        signalling = TransferDistribution(binary_layout, {2: HALF, 3: HALF})
        assert problem.is_satisfied_by(degenerate)
        assert problem.is_satisfied_by(signalling)
        report = ct.solve_feasibility(problem)
        assert report.feasible and report.verify()

    def test_zero_constraints_pick_the_degenerate_point(self, coin_table):
        problem = ct.build_consistency_problem(
            coin_table,
            constraints=[LinearConstraint.zero(2), LinearConstraint.zero(3)],
        )
        report = ct.solve_feasibility(problem)
        assert report.feasible
        assert report.witness.weights == {0: HALF, 1: HALF}

    def test_deterministic_table_unique_point_mass(self, binary_layout):
        table = TransitionTable.from_function(ct.not_function(binary_layout))
        report = ct.solve_feasibility(ct.build_consistency_problem(table))
        assert report.feasible
        assert report.witness.weights == {3: F(1)}

    def test_witness_reproduces_target(self, binary_layout):
        table = TransitionTable(binary_layout, ((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4))))
        report = ct.solve_feasibility(ct.build_consistency_problem(table))
        assert report.feasible
        assert ct.transitions_from_transfers(report.witness) == table

    def test_solver_is_deterministic(self, coin_table):
        problem = ct.build_consistency_problem(coin_table)
        w1 = ct.solve_feasibility(problem).witness
        w2 = ct.solve_feasibility(problem).witness
        assert w1.weights == w2.weights

    def test_inequality_constraints(self, coin_table):
        con = LinearConstraint(((0, F(1)),), ">=", F(2, 5))
        report = ct.solve_feasibility(ct.build_consistency_problem(coin_table, [con]))
        assert report.feasible
        assert report.witness.weights.get(0, F(0)) >= F(2, 5)
        con = LinearConstraint(((0, F(1)),), ">=", F(3, 5))
        report = ct.solve_feasibility(ct.build_consistency_problem(coin_table, [con]))
        assert not report.feasible
        assert report.verify()

    def test_random_tables_always_feasible_unrestricted(self):
        # Product measures realize any transition table, so the
        # unrestricted region is never empty; the solver must agree and
        # its witness must reproduce the table.
        import random

        rng = random.Random(23)
        lay23 = ct.PortLayout((ct.PortSpec("i", 2),), (ct.PortSpec("j", 3),))
        for layout in (ct.elementary_binary_layout(), lay23):
            for _ in range(20):
                rows = []
                for _ in range(layout.n_inputs):
                    raw = [F(rng.randrange(0, 9)) for _ in range(layout.n_outputs)]
                    if sum(raw) == 0:
                        raw[0] = F(1)
                    total = sum(raw)
                    rows.append(tuple(p / total for p in raw))
                table = TransitionTable(layout, tuple(rows))
                report = ct.solve_feasibility(ct.build_consistency_problem(table))
                assert report.feasible
                assert ct.transitions_from_transfers(report.witness) == table

    def test_cap_guard(self, binary_layout):
        wide = ct.PortLayout(
            (ct.PortSpec("i", 8),), (ct.PortSpec("j", 8),)
        )
        rows = tuple(
            tuple(F(1) if j == 0 else F(0) for j in range(8)) for _ in range(8)
        )
        table = TransitionTable(wide, rows)
        with pytest.raises(ct.CapExceededError):
            ct.build_consistency_problem(table, cap=1000)


class TestLocalityRestriction:
    def test_three_angle_count(self, violating_table):
        problem = ct.build_consistency_problem(violating_table)
        local = ct.restrict_to_local(problem, ct.bell_partition())
        assert len(local.variables) == 64
        assert local.structure is not None

    def test_simplified_count(self):
        table = ct.singlet_table((0.0,), (0.0, math.pi / 3))
        local = ct.restrict_to_local(
            ct.build_consistency_problem(table), ct.bell_partition()
        )
        assert len(local.variables) == 8

    def test_single_region_no_reduction(self, coin_table):
        problem = ct.build_consistency_problem(coin_table)
        local = ct.restrict_to_local(problem, {"A": ("in", "out")})
        assert len(local.variables) == 4

    def test_partition_must_cover(self, coin_table):
        problem = ct.build_consistency_problem(coin_table)
        with pytest.raises(ValueError):
            ct.restrict_to_local(problem, {"A": ("in",)})

    def test_local_functions_do_not_signal(self, violating_table):
        layout = violating_table.layout
        local = ct.restrict_to_local(
            ct.build_consistency_problem(violating_table), ct.bell_partition()
        )
        for v in local.variables:
            f = ct.function_from_index(layout, v)
            for alpha, beta in product(range(3), repeat=2):
                a, b = f.apply((alpha, beta))
                for other in range(3):
                    a_alt, _ = f.apply((alpha, other))
                    _, b_alt = f.apply((other, beta))
                    assert a_alt == a and b_alt == b


class TestPerfectCorrelation:
    def classes(self, problem):
        zeros = sum(
            1
            for c in problem.extra
            if len(c.coeffs) == 1 and c.sense == "==" and c.rhs == 0
        )
        pairs = sum(
            1
            for c in problem.extra
            if len(c.coeffs) == 2 and c.sense == "==" and c.rhs == 0
        )
        return zeros, pairs

    def test_three_angle_classes(self, violating_table):
        local = ct.restrict_to_local(
            ct.build_consistency_problem(violating_table), ct.bell_partition()
        )
        constrained = ct.apply_perfect_correlation(local)
        zeros, pairs = self.classes(constrained)
        assert zeros == 64 - 8
        assert pairs == 4  # eight matched behaviours in four flip classes

    def test_symmetry_halves_the_free_count(self, violating_table):
        local = ct.restrict_to_local(
            ct.build_consistency_problem(violating_table), ct.bell_partition()
        )
        with_sym = ct.apply_perfect_correlation(local, spin_symmetry=True)
        without = ct.apply_perfect_correlation(local, spin_symmetry=False)
        assert len(ct.restricted_vertices(with_sym)) == 4
        assert len(ct.restricted_vertices(without)) == 8

    def test_requires_locality_structure(self, coin_table):
        problem = ct.build_consistency_problem(coin_table)
        with pytest.raises(ValueError):
            ct.apply_perfect_correlation(problem)

    def test_requires_matching_setting_counts(self):
        table = ct.singlet_table((0.0,), (0.0, math.pi / 3))
        local = ct.restrict_to_local(
            ct.build_consistency_problem(table), ct.bell_partition()
        )
        with pytest.raises(ValueError):
            ct.apply_perfect_correlation(local)

    def test_two_angle_classes(self):
        table = ct.singlet_table((0.0, math.pi / 3))
        local = ct.restrict_to_local(
            ct.build_consistency_problem(table), ct.bell_partition()
        )
        constrained = ct.apply_perfect_correlation(local)
        vertices = ct.restricted_vertices(constrained)
        assert len(vertices) == 2
        labels = {label for label, _ in vertices}
        assert labels == {"[++,++] = [--,--]", "[+-,+-] = [-+,-+]"}


class TestDerivation:
    def expected_three_angle_forms(self, layout):
        pairs = [(1, 2), (2, 0), (0, 1)]

        def sym(pair, j):
            return (layout.encode_input(pair), j)

        forms = []
        # same-sign class sums: 2 P0 and the three 2 P(k) forms
        forms.append((tuple(sorted((sym(p, 0), 2) for p in pairs)), 1))
        for k in range(3):
            coeffs = [(sym(pairs[k], 0), 2)] + [
                (sym(pairs[m], 0), -2) for m in range(3) if m != k
            ]
            forms.append((tuple(sorted(coeffs)), -1))
        # opposite-sign forms
        for k in range(3):
            coeffs = [(sym(pairs[m], 1), 1) for m in range(3) if m != k] + [
                (sym(pairs[k], 1), -1)
            ]
            forms.append((tuple(sorted(coeffs)), 0))
        return forms

    def test_three_angle_derivation_matches_known_forms(self, violating_table):
        scenario = ct.bell_scenario((0.0, math.pi / 3, 2 * math.pi / 3), violating_table)
        derived = ct.bell_inequalities(scenario)
        got = {q.normalized() for q in derived}
        for form in self.expected_three_angle_forms(violating_table.layout):
            assert form in got

    def test_two_angle_forms_are_trivially_satisfiable(self):
        # Bounds like Pr >= 0 and Pr <= 1/2 hold for every correlated
        # quantum table, so two settings can never produce a violation.
        scenario = ct.bell_scenario((0.0, 1.0), ct.singlet_table((0.0, 1.0), tolerance=1e-9))
        derived = ct.bell_inequalities(scenario)
        assert derived
        for theta in (0.3, 0.9, 2.2):
            table = ct.singlet_table((0.0, theta), tolerance=1e-9)
            for q in derived:
                assert q.evaluate(table) >= 0

    def test_soundness_on_restricted_vertices(self, violating_table):
        problem = ct.bell_problem(
            ct.bell_scenario((0.0, math.pi / 3, 2 * math.pi / 3), violating_table)
        )
        derived = ct.derive_inequalities(
            problem, preferred_symbols=ct.bell_symbol_order(3)
        )
        vertices = ct.restricted_vertices(problem)
        assert len(vertices) == 4
        for q in derived:
            for label, point in vertices:
                assert evaluate_point(q, point) >= 0

    def test_derivation_is_deterministic(self, violating_table):
        scenario = ct.bell_scenario((0.0, math.pi / 3, 2 * math.pi / 3), violating_table)
        first = ct.bell_inequalities(scenario)
        second = ct.bell_inequalities(scenario)
        assert [q.normalized() for q in first] == [q.normalized() for q in second]
        assert [q.provenance for q in first] == [q.provenance for q in second]

    def test_underdetermined_raises_with_solve(self, coin_table):
        problem = ct.build_consistency_problem(coin_table)
        with pytest.raises(ct.UnderdeterminedError):
            ct.derive_inequalities(problem, method="solve")

    def test_general_equality_constraint_enters_the_solve(self, coin_table):
        # Pinning F0 + F1 completes the rank-deficient transition system,
        # so every weight becomes an affine form of the table entries.
        pin = LinearConstraint(((0, F(1)), (1, F(1))), "==", HALF)
        problem = ct.build_consistency_problem(coin_table, [pin])
        derived = ct.derive_inequalities(problem, method="solve")
        assert len(derived) >= 4
        # weight of the all-zeros behaviour: (Pr(0|0) + Pr(0|1) - 1/2) / 2
        expected = ct.DerivedInequality(
            (((0, 0), F(1)), ((1, 0), F(1))), HALF, ">=", ""
        )
        assert expected.normalized() in {q.normalized() for q in derived}
        # the coin table itself satisfies the pin (uniform weights), so
        # every derived bound must hold on it
        for q in derived:
            assert q.evaluate(coin_table) >= 0

    def test_all_variables_zeroed_is_an_error(self, coin_table):
        constraints = [LinearConstraint.zero(k) for k in range(4)]
        problem = ct.build_consistency_problem(coin_table, constraints)
        with pytest.raises(ValueError):
            ct.derive_inequalities(problem)

    def test_single_shared_angle_still_splits_sign_classes(self):
        # The nearest representable form of "no angle freedom": one shared
        # setting; perfect correlation zeroes the two mismatched products
        # and symmetry merges the remaining two.
        table = ct.singlet_table((0.0,))
        local = ct.restrict_to_local(
            ct.build_consistency_problem(table), ct.bell_partition()
        )
        assert len(local.variables) == 4
        constrained = ct.apply_perfect_correlation(local)
        assert len(ct.restricted_vertices(constrained)) == 1

    def test_facet_fallback_sound_and_complete_for_coin(self, coin_table):
        # The unrestricted elementary binary region in transition space is
        # a square; its facets touch exactly two vertices each.
        problem = ct.build_consistency_problem(coin_table)
        derived = ct.derive_inequalities(problem)
        assert len(derived) == 4
        vertices = ct.restricted_vertices(problem)
        for q in derived:
            slacks = [evaluate_point(q, point) for _, point in vertices]
            assert all(s >= 0 for s in slacks)
            assert sum(1 for s in slacks if s == 0) == 2

    def test_chsh_family_appears_for_two_settings_without_symmetry(self):
        table = ct.singlet_table((0.0, math.pi / 2))
        local = ct.restrict_to_local(
            ct.build_consistency_problem(table), ct.bell_partition()
        )
        assert len(local.variables) == 16
        derived = ct.derive_inequalities(local, method="facets")
        assert len(derived) == 24
        sixteen_term = [q for q in derived if len(q.normalized()[0]) == 16]
        assert len(sixteen_term) == 8
        # soundness on all 16 local vertices
        for q in derived:
            for _, point in ct.restricted_vertices(local):
                assert evaluate_point(q, point) >= 0

    def test_three_setting_local_polytope_has_684_facets(self):
        # Collins & Gisin 2004: the locality-only polytope with three
        # two-outcome settings per party has 684 facets, in three classes:
        # 36 positivity, 72 CHSH and 576 I3322.
        table = ct.singlet_table((0.0, math.pi / 3, 2 * math.pi / 3))
        layout = table.layout
        local = ct.restrict_to_local(
            ct.build_consistency_problem(table), ct.bell_partition()
        )
        derived = ct.derive_inequalities(local, method="facets")
        assert len(derived) == 684
        assert len({q.normalized() for q in derived}) == 684
        # The 64 deterministic local behaviours, enumerated here from the
        # two parties' sign strings, each as its set of symbols (i, j)
        # with probability 1.
        vertices = []
        for signs_a in product((0, 1), repeat=3):
            for signs_b in product((0, 1), repeat=3):
                vertex = set()
                for i in range(layout.n_inputs):
                    x, y = layout.decode_input(i)
                    vertex.add((i, layout.encode_output((signs_a[x], signs_b[y]))))
                vertices.append(vertex)
        assert len(vertices) == 64
        tight_counts = {}
        for q in derived:
            terms, bound = q.normalized()
            slacks = [
                sum(c for sym, c in terms if sym in vertex) - bound for vertex in vertices
            ]
            assert min(slacks) >= 0
            tight = slacks.count(0)
            # a facet of the 15-dimensional polytope
            assert tight >= 15
            tight_counts[tight] = tight_counts.get(tight, 0) + 1
        assert tight_counts == {48: 36, 32: 72, 20: 576}


class TestExpectationValue:
    def test_quarter_probability_gives_zero(self):
        layout = ct.bell_layout(3)
        rows = []
        for i in range(9):
            rows.append((F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
        table = TransitionTable(layout, tuple(rows))
        assert ct.expectation_value(table, (1, 2)) == 0

    def test_equal_angles_perfect_correlation(self, violating_table):
        assert ct.expectation_value(violating_table, (0, 0)) == -1

    def test_sixty_degree_difference(self, violating_table):
        assert ct.expectation_value(violating_table, (0, 1)) == -HALF


class TestWeakSignal:
    def test_coin_has_no_weak_signal(self, coin_table):
        report = ct.certify_weak_signal(coin_table, {"A": ("in",), "B": ("out",)})
        assert not report.weak_signal

    def test_violating_singlet_has_weak_signal(self, violating_table):
        report = ct.certify_weak_signal(violating_table, ct.bell_partition())
        assert report.weak_signal
        assert report.certificate is not None
        assert report.feasibility.verify()

    def test_deterministic_local_product_has_no_weak_signal(self):
        # A constant behaviour is a product, so the region is nonempty.
        layout = ct.bell_layout(2)
        table = TransitionTable.from_function(ct.function_from_index(layout, 0))
        report = ct.certify_weak_signal(table, ct.bell_partition())
        assert not report.weak_signal

    def test_certificate_matches_violated_inequality(self, violating_table):
        # The exact LP and the closed-form instances agree on infeasibility.
        scenario = ct.bell_scenario((0.0, math.pi / 3, 2 * math.pi / 3), violating_table)
        report = ct.bell_violation_report(scenario)
        weak = ct.certify_weak_signal(violating_table, ct.bell_partition())
        assert report.violated == weak.weak_signal
