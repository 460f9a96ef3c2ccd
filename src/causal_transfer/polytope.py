"""The consistent region of transfer probabilities as an exact LP.

A transition table pins down a polytope of transfer distributions (the
consistent region).  This module builds that polytope as an exact-rational
feasibility problem, solves it with certificates, restricts it to local
(regionwise product) behaviours, applies perfect-correlation and
spin-reversal constraints, and derives the resulting inequalities over
transition probabilities, either by solving the linear system directly or
by exact facet enumeration when the system is underdetermined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import hull, linalg
from .rationals import as_fraction, format_fraction
from .simplex import FarkasCertificate, solve_equality_feasibility
from .stochastic import TransferDistribution, TransitionTable, transitions_from_transfers
from .systems import (
    CapExceededError,
    PortLayout,
    TransferFunction,
    count_transfer_functions,
    enumeration_cap,
    function_from_index,
)

ZERO = Fraction(0)
ONE = Fraction(1)

Symbol = tuple[int, int]  # (joint input index, joint output index) of a transition entry


class UnderdeterminedError(ValueError):
    """Raised when method='solve' cannot express every class probability."""


@dataclass(frozen=True)
class LinearConstraint:
    """A linear condition over transfer probabilities, by function index."""

    coeffs: tuple[tuple[int, Fraction], ...]
    sense: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            tuple((int(v), as_fraction(c)) for v, c in self.coeffs),
        )
        object.__setattr__(self, "rhs", as_fraction(self.rhs))
        if self.sense not in ("==", "<=", ">="):
            raise ValueError(f"unknown sense {self.sense!r}")

    @classmethod
    def zero(cls, var: int) -> "LinearConstraint":
        return cls(((var, ONE),), "==", ZERO)

    @classmethod
    def equal(cls, var_a: int, var_b: int) -> "LinearConstraint":
        return cls(((var_a, ONE), (var_b, -ONE)), "==", ZERO)

    def holds_for(self, weights) -> bool:
        value = sum(c * weights.get(v, ZERO) for v, c in self.coeffs)
        if self.sense == "==":
            return value == self.rhs
        if self.sense == "<=":
            return value <= self.rhs
        return value >= self.rhs


@dataclass(frozen=True)
class LocalStructure:
    """Regionwise decomposition attached by restrict_to_local.

    Maps every admissible function index to its per-region tables, so later
    stages (perfect correlation, labelling) can reason about the factors.
    """

    regions: tuple[str, ...]
    region_inputs: dict[str, tuple[str, ...]]
    region_outputs: dict[str, tuple[str, ...]]
    factors: dict[int, dict[str, tuple[int, ...]]]


@dataclass(frozen=True)
class ConsistencyProblem:
    """Feasibility problem for Pr(F) >= 0 reproducing a transition table.

    The implied equalities are one equation per transition entry
    (sum of Pr(F) over F with F(i) = j equals the target entry) plus the
    normalization; extra constraints encode zero sets, symmetry
    identifications, and the like.
    """

    target: TransitionTable
    variables: tuple[int, ...]
    extra: tuple[LinearConstraint, ...] = ()
    structure: LocalStructure | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "extra", tuple(self.extra))
        admitted = set(self.variables)
        for con in self.extra:
            for v, _ in con.coeffs:
                if v not in admitted:
                    raise ValueError(
                        f"constraint references function {v} outside the variable set"
                    )

    @property
    def layout(self) -> PortLayout:
        return self.target.layout

    def variable_functions(self) -> dict[int, TransferFunction]:
        return {v: function_from_index(self.layout, v) for v in self.variables}

    def equation_rows(self):
        """Standard form rows (A, b) with slack columns for inequality extras.

        Row order: transition equations sorted by (i, j), then the
        normalization, then extra constraints.  Column order: variables in
        declared order, then one slack per inequality constraint.
        """
        layout = self.layout
        var_pos = {v: k for k, v in enumerate(self.variables)}
        n_vars = len(self.variables)
        n_slack = sum(1 for c in self.extra if c.sense != "==")
        width = n_vars + n_slack
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []

        tables = {v: function_from_index(layout, v).table for v in self.variables}
        for i in range(layout.n_inputs):
            for j in range(layout.n_outputs):
                row = [ZERO] * width
                for v, pos in var_pos.items():
                    if tables[v][i] == j:
                        row[pos] = ONE
                rows.append(row)
                rhs.append(self.target.rows[i][j])

        row = [ZERO] * width
        for pos in range(n_vars):
            row[pos] = ONE
        rows.append(row)
        rhs.append(ONE)

        slack = n_vars
        for con in self.extra:
            row = [ZERO] * width
            for v, c in con.coeffs:
                row[var_pos[v]] += c
            if con.sense == "<=":
                row[slack] = ONE
                slack += 1
            elif con.sense == ">=":
                row[slack] = -ONE
                slack += 1
            rows.append(row)
            rhs.append(con.rhs)
        return rows, rhs

    def is_satisfied_by(self, dist: TransferDistribution) -> bool:
        """Exact check of a transfer distribution against all constraints."""
        if dist.layout != self.layout:
            return False
        if not set(dist.support) <= set(self.variables):
            return False
        if transitions_from_transfers(dist) != self.target:
            return False
        return all(con.holds_for(dist.weights) for con in self.extra)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a consistency-problem solve.

    Feasible problems carry a witness distribution that satisfies every
    constraint exactly; infeasible ones carry a Farkas certificate that can
    be re-verified without re-running the solver.
    """

    problem: ConsistencyProblem
    feasible: bool
    witness: TransferDistribution | None = None
    certificate: FarkasCertificate | None = None

    def verify(self) -> bool:
        if self.feasible:
            return self.witness is not None and self.problem.is_satisfied_by(
                self.witness
            )
        rows, rhs = self.problem.equation_rows()
        return self.certificate is not None and self.certificate.verify(rows, rhs)


def build_consistency_problem(
    target: TransitionTable,
    constraints=(),
    variables=None,
    cap: int | None = None,
) -> ConsistencyProblem:
    """LP over Pr(F) >= 0 with the transition equations and normalization."""
    limit = enumeration_cap(cap)
    n_f = count_transfer_functions(target.layout)
    if n_f > limit:
        raise CapExceededError(
            f"{n_f} transfer functions exceed the enumeration cap {limit}"
        )
    if variables is None:
        variables = range(n_f)
    return ConsistencyProblem(target, tuple(variables), tuple(constraints))


def solve_feasibility(problem: ConsistencyProblem) -> FeasibilityReport:
    """Exact-rational feasibility of the consistent region."""
    rows, rhs = problem.equation_rows()
    result = solve_equality_feasibility(rows, rhs)
    if result.feasible:
        weights = {
            v: result.point[k]
            for k, v in enumerate(problem.variables)
            if result.point[k] != ZERO
        }
        witness = TransferDistribution(problem.layout, weights)
        return FeasibilityReport(problem, True, witness=witness)
    return FeasibilityReport(problem, False, certificate=result.certificate)


def _region_port_split(layout: PortLayout, partition):
    """Validate a partition {region: port names} and split layout ports."""
    assignment: dict[str, str] = {}
    for region, ports in partition.items():
        for name in ports:
            if name in assignment:
                raise ValueError(f"port {name!r} assigned to two regions")
            assignment[name] = region
    layout_names = [p.name for p in layout.inputs + layout.outputs]
    missing = [n for n in layout_names if n not in assignment]
    extra = [n for n in assignment if n not in layout_names]
    if missing or extra:
        raise ValueError(
            f"partition does not cover the layout (missing {missing}, unknown {extra})"
        )
    regions = tuple(sorted(partition))
    region_inputs = {
        r: tuple(p.name for p in layout.inputs if assignment[p.name] == r)
        for r in regions
    }
    region_outputs = {
        r: tuple(p.name for p in layout.outputs if assignment[p.name] == r)
        for r in regions
    }
    return regions, region_inputs, region_outputs


def restrict_to_local(
    problem: ConsistencyProblem, partition, cap: int | None = None
) -> ConsistencyProblem:
    """Keep only product behaviours: each region's outputs may depend on
    that region's inputs alone (no signalling between regions).

    The partition maps region labels to port names and must cover the
    layout exactly.  The restricted problem's variables are the functions
    that factorize accordingly; a LocalStructure recording the factors is
    attached for later stages.
    """
    layout = problem.layout
    regions, region_inputs, region_outputs = _region_port_split(layout, partition)

    in_cards = {p.name: p.cardinality for p in layout.inputs}
    out_cards = {p.name: p.cardinality for p in layout.outputs}
    in_pos = {p.name: k for k, p in enumerate(layout.inputs)}
    out_pos = {p.name: k for k, p in enumerate(layout.outputs)}

    def joint(names, cards):
        n = 1
        for name in names:
            n *= cards[name]
        return n

    limit = enumeration_cap(cap)
    total = 1
    for r in regions:
        total *= joint(region_outputs[r], out_cards) ** joint(region_inputs[r], in_cards)
    if total > limit:
        raise CapExceededError(
            f"{total} local product functions exceed the enumeration cap {limit}"
        )

    region_tables = {}
    for r in regions:
        n_in = joint(region_inputs[r], in_cards)
        n_out = joint(region_outputs[r], out_cards)
        tables = []
        for number in range(n_out**n_in):
            tbl = []
            x = number
            for _ in range(n_in):
                tbl.append(x % n_out)
                x //= n_out
            tables.append(tuple(reversed(tbl)))
        region_tables[r] = tables

    def encode(values, names, cards):
        idx = 0
        for name in names:
            idx = idx * cards[name] + values[name]
        return idx

    def decode(index, names, cards):
        values = {}
        for name in reversed(names):
            values[name] = index % cards[name]
            index //= cards[name]
        return values

    variables = []
    factors: dict[int, dict[str, tuple[int, ...]]] = {}
    from itertools import product as iproduct

    for combo in iproduct(*(region_tables[r] for r in regions)):
        per_region = dict(zip(regions, combo))
        table = []
        for i in range(layout.n_inputs):
            in_values = dict(zip((p.name for p in layout.inputs), layout.decode_input(i)))
            out_values: dict[str, int] = {}
            for r in regions:
                ridx = encode(in_values, region_inputs[r], in_cards)
                routs = decode(per_region[r][ridx], region_outputs[r], out_cards)
                out_values.update(routs)
            j = layout.encode_output(
                [out_values[p.name] for p in layout.outputs]
            )
            table.append(j)
        fn = TransferFunction(layout, tuple(table))
        idx = fn.index
        variables.append(idx)
        factors[idx] = per_region

    variables = tuple(sorted(set(variables)))
    dropped = [
        con
        for con in problem.extra
        if any(v not in set(variables) for v, _ in con.coeffs)
    ]
    if dropped:
        raise ValueError(
            "existing constraints reference functions outside the local restriction"
        )
    structure = LocalStructure(regions, region_inputs, region_outputs, factors)
    return ConsistencyProblem(problem.target, variables, problem.extra, structure)


def _sign_string(table: tuple[int, ...]) -> str:
    return "".join("+" if v == 0 else "-" for v in table)


def _binary_channel_structure(problem: ConsistencyProblem):
    s = problem.structure
    if s is None or len(s.regions) != 2:
        raise ValueError("needs a locality restriction with two regions")
    for r in s.regions:
        if len(s.region_inputs[r]) != 1 or len(s.region_outputs[r]) != 1:
            raise ValueError(f"region {r!r} must have one input and one output port")
    layout = problem.layout
    in_cards = {p.name: p.cardinality for p in layout.inputs}
    out_cards = {p.name: p.cardinality for p in layout.outputs}
    ra, rb = s.regions
    if in_cards[s.region_inputs[ra][0]] != in_cards[s.region_inputs[rb][0]]:
        raise ValueError("the two regions must offer the same set of settings")
    if out_cards[s.region_outputs[ra][0]] != 2 or out_cards[s.region_outputs[rb][0]] != 2:
        raise ValueError("outputs must be binary signs")
    return ra, rb


def apply_perfect_correlation(
    problem: ConsistencyProblem, spin_symmetry: bool = True
) -> ConsistencyProblem:
    """Bell-type constraint set: equal settings give equal signs.

    Zeroes every product behaviour whose two regional sign strings differ
    (equal-setting outputs would then disagree).  With spin_symmetry, also
    identifies each behaviour with its all-signs-flipped partner, which
    halves the number of free probabilities.
    """
    ra, rb = _binary_channel_structure(problem)
    s = problem.structure
    constraints = list(problem.extra)
    matched = []
    for v in problem.variables:
        ta = s.factors[v][ra]
        tb = s.factors[v][rb]
        if ta != tb:
            constraints.append(LinearConstraint.zero(v))
        else:
            matched.append((v, ta))
    if spin_symmetry:
        flipped_index = {}
        for v, ta in matched:
            flipped_index[ta] = v
        seen = set()
        for v, ta in matched:
            flipped = tuple(1 - x for x in ta)
            w = flipped_index.get(flipped)
            if w is None or v in seen or w in seen or v == w:
                continue
            seen.add(v)
            seen.add(w)
            constraints.append(LinearConstraint.equal(v, w))
    return replace(problem, extra=tuple(constraints))


@dataclass(frozen=True)
class DerivedInequality:
    """A valid linear inequality over transition probabilities.

    coefficients . Pr(j|i) >= bound on every distribution of the
    restricted polytope; provenance names the nonnegativity it came from.
    """

    coefficients: tuple[tuple[Symbol, Fraction], ...]
    bound: Fraction
    sense: str = ">="
    provenance: str = ""

    def evaluate(self, table: TransitionTable) -> Fraction:
        """Slack on a concrete table: nonnegative iff the table satisfies it."""
        value = sum(c * table.rows[i][j] for (i, j), c in self.coefficients)
        return value - self.bound if self.sense == ">=" else self.bound - value

    def normalized(self):
        """Canonical comparable form: primitive integer coefficients, sense >=."""
        items = sorted((sym, c) for sym, c in self.coefficients if c != ZERO)
        coeffs = [c for _, c in items] + [self.bound]
        if self.sense == "<=":
            coeffs = [-c for c in coeffs]
        ints = linalg.primitive(coeffs)
        return (
            tuple((sym, ints[k]) for k, (sym, _) in enumerate(items)),
            ints[-1],
        )

    def render(self, layout: PortLayout | None = None) -> str:
        def name(sym):
            i, j = sym
            if layout is not None and len(layout.outputs) == 2 and all(
                p.cardinality == 2 for p in layout.outputs
            ):
                signs = "".join("+" if v == 0 else "-" for v in layout.decode_output(j))
                settings = "".join(str(v + 1) for v in layout.decode_input(i))
                return f"Pr({signs}|{settings})"
            return f"Pr(j={j}|i={i})"

        terms, bound = self.normalized()
        parts = []
        for sym, c in terms:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {coeff}{name(sym)}")
        lhs = " ".join(parts).lstrip("+ ") or "0"
        return f"{lhs} >= {format_fraction(Fraction(bound))}"


class _Affine:
    """Affine form over transition symbols with an exact constant."""

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=ZERO):
        self.terms = dict(terms or {})
        self.const = const


def _preprocess(problem: ConsistencyProblem):
    """Fold zero and pairwise-equality constraints into variable classes.

    Returns (classes, leftover) where classes is an ordered list of tuples
    of function indices sharing one probability, and leftover the equality
    constraints that were not of zero/merge shape (inequalities are not
    used by the derivation).
    """
    zeros = set()
    parents = {v: v for v in problem.variables}

    def find(v):
        while parents[v] != v:
            parents[v] = parents[parents[v]]
            v = parents[v]
        return v

    leftover = []
    for con in problem.extra:
        coeffs = [(v, c) for v, c in con.coeffs if c != ZERO]
        if con.sense != "==":
            continue
        if len(coeffs) == 1 and con.rhs == ZERO:
            zeros.add(coeffs[0][0])
        elif (
            len(coeffs) == 2
            and con.rhs == ZERO
            and coeffs[0][1] == -coeffs[1][1]
        ):
            a, b = find(coeffs[0][0]), find(coeffs[1][0])
            if a != b:
                parents[max(a, b)] = min(a, b)
        else:
            leftover.append(con)

    zero_roots = {find(z) for z in zeros}
    groups: dict[int, list[int]] = {}
    for v in problem.variables:
        if find(v) in zero_roots:
            continue
        groups.setdefault(find(v), []).append(v)
    classes = [tuple(sorted(groups[r])) for r in sorted(groups)]
    return classes, leftover


def _class_label(problem: ConsistencyProblem, members) -> str:
    s = problem.structure
    if s is not None:
        parts = []
        for v in members:
            strings = ",".join(_sign_string(s.factors[v][r]) for r in s.regions)
            parts.append(f"[{strings}]")
        return " = ".join(parts)
    return " = ".join(f"F{v}" for v in members)


def restricted_vertices(problem: ConsistencyProblem):
    """Vertices of the restricted polytope in transition-probability space.

    Each class of identified functions contributes the centroid of its
    members' deterministic transition points.  Returns (label, point) pairs
    with points keyed by transition symbol.
    """
    classes, leftover = _preprocess(problem)
    if leftover:
        raise ValueError("general extra constraints prevent a vertex description")
    layout = problem.layout
    vertices = []
    for members in classes:
        point: dict[Symbol, Fraction] = {}
        share = Fraction(1, len(members))
        for v in members:
            table = function_from_index(layout, v).table
            for i, j in enumerate(table):
                point[(i, j)] = point.get((i, j), ZERO) + share
        for i in range(layout.n_inputs):
            for j in range(layout.n_outputs):
                point.setdefault((i, j), ZERO)
        vertices.append((_class_label(problem, members), point))
    return vertices


def _solve_block(rows, n_classes):
    """Gauss-Jordan over class probabilities with affine right-hand sides.

    rows: list of (coefficient list, _Affine).  Each row is brought to
    integers with its right-hand side as extra columns (one per symbol,
    then the constant) and pivoted fraction-free, column by column on the
    first unused row.  Returns {class index: affine expression} for the
    uniquely determined classes.
    """
    symbols = sorted({s for _, rhs in rows for s in rhs.terms})
    work = [
        linalg.primitive(
            list(coeffs) + [rhs.terms.get(s, ZERO) for s in symbols] + [rhs.const]
        )
        for coeffs, rhs in rows
    ]
    pivot_rows: dict[int, int] = {}
    d = 1
    for col in range(n_classes):
        pr = next(
            (
                k
                for k, row in enumerate(work)
                if row[col] and k not in pivot_rows.values()
            ),
            None,
        )
        if pr is None:
            continue
        d = linalg.pivot(work, pr, col, d)
        pivot_rows[col] = pr
    determined = {}
    for col, pr in pivot_rows.items():
        row = work[pr]
        if all(c == 0 for k, c in enumerate(row[:n_classes]) if k != col):
            terms = {s: Fraction(v, d) for s, v in zip(symbols, row[n_classes:]) if v}
            determined[col] = _Affine(terms, Fraction(row[-1], d))
    return determined


def derive_inequalities(
    problem: ConsistencyProblem,
    preferred_symbols=None,
    method: str = "auto",
) -> list[DerivedInequality]:
    """Inequalities implied by nonnegativity of the transfer probabilities.

    Solves the transition equations (with normalization, treating the
    table entries as symbols) for the class probabilities and rewrites each
    P >= 0 over transition probabilities.  Equation subsets are tried per
    joint output value and then jointly, so structured scenarios yield the
    familiar compact forms.  When the system leaves classes undetermined:
    method 'auto' falls back to exact facet enumeration of the vertex
    polytope, 'solve' raises UnderdeterminedError, 'facets' skips the
    solve entirely.

    preferred_symbols ranks transition symbols (i, j); when several
    equations carry identical coefficient rows (as symmetry constraints
    force), the best-ranked symbol is kept as the representative.
    """
    if method not in ("auto", "solve", "facets"):
        raise ValueError(f"unknown method {method!r}")
    classes, leftover = _preprocess(problem)
    n_classes = len(classes)
    layout = problem.layout
    if n_classes == 0:
        raise ValueError("every transfer probability is constrained to zero")

    rank = {}
    if preferred_symbols:
        rank = {tuple(sym): k for k, sym in enumerate(preferred_symbols)}
    big = len(rank)

    def symbol_rank(sym):
        return (rank.get(sym, big), sym)

    inequalities: list[DerivedInequality] = []
    seen = set()

    def emit(col, expr, origin):
        ineq = DerivedInequality(
            coefficients=tuple(sorted(expr.terms.items())),
            bound=-expr.const,
            sense=">=",
            provenance=f"Pr({_class_label(problem, classes[col])}) >= 0 [{origin}]",
        )
        key = ineq.normalized()
        if key not in seen:
            seen.add(key)
            inequalities.append(ineq)

    determined_all: set[int] = set()
    if method in ("auto", "solve"):
        # Normalization row: every member of a class shares its probability.
        norm_row = (
            [Fraction(len(members)) for members in classes],
            _Affine(const=ONE),
        )
        const_rows = []
        for con in leftover:
            coeffs = [ZERO] * n_classes
            per_var = dict(con.coeffs)
            for col, members in enumerate(classes):
                coeffs[col] = sum(per_var.get(v, ZERO) for v in members)
            const_rows.append((coeffs, _Affine(const=con.rhs)))

        # Transition rows, one per symbol, with identical rows merged down
        # to their best-ranked representative.
        tables = {
            v: function_from_index(layout, v).table
            for members in classes
            for v in members
        }
        merged: dict[tuple, Symbol] = {}
        for i in range(layout.n_inputs):
            for j in range(layout.n_outputs):
                coeffs = [ZERO] * n_classes
                for col, members in enumerate(classes):
                    count = sum(1 for v in members if tables[v][i] == j)
                    coeffs[col] = Fraction(count)
                key = tuple(coeffs)
                sym = (i, j)
                if key not in merged or symbol_rank(sym) < symbol_rank(merged[key]):
                    merged[key] = sym

        transition_rows = []
        for key, sym in merged.items():
            if all(c == ZERO for c in key):
                continue  # pure consistency condition on the table
            transition_rows.append((list(key), _Affine({sym: ONE})))
        transition_rows.sort(key=lambda row: symbol_rank(next(iter(row[1].terms))))

        by_output: dict[int, list] = {}
        for coeffs, rhs in transition_rows:
            j = next(iter(rhs.terms))[1]
            by_output.setdefault(j, []).append((coeffs, rhs))

        blocks = [by_output[j] for j in sorted(by_output)]
        blocks.append(transition_rows)
        for block in blocks:
            rows = [norm_row] + const_rows + block
            for col, expr in sorted(_solve_block(rows, n_classes).items()):
                determined_all.add(col)
                emit(col, expr, "solved")

    if method == "solve" and len(determined_all) < n_classes:
        raise UnderdeterminedError(
            f"only {len(determined_all)} of {n_classes} class probabilities "
            "are determined by the transition equations"
        )

    if method == "facets" or (method == "auto" and len(determined_all) < n_classes):
        symbols = [
            (i, j)
            for i in range(layout.n_inputs)
            for j in range(layout.n_outputs)
        ]
        points = []
        for _, point in restricted_vertices(problem):
            points.append(tuple(point[s] for s in symbols))
        for coeffs, bound in hull.facet_inequalities(points):
            expr = _Affine(
                {s: c for s, c in zip(symbols, coeffs) if c != ZERO}, -bound
            )
            ineq = DerivedInequality(
                coefficients=tuple(sorted(expr.terms.items())),
                bound=bound,
                sense=">=",
                provenance="facet of the restricted polytope",
            )
            key = ineq.normalized()
            if key not in seen:
                seen.add(key)
                inequalities.append(ineq)

    return inequalities


def expectation_value(table: TransitionTable, setting_pair) -> Fraction:
    """Product expectation for one pair of settings of a two-party table.

    With binary sign outputs and the same-sign convention at equal
    settings, the expectation of the product of the two signs equals
    4 Pr(+-|pair) - 1.  Settings are zero-based indices.
    """
    layout = table.layout
    if len(layout.inputs) != 2 or len(layout.outputs) != 2:
        raise ValueError("expectation needs a two-party table")
    if any(p.cardinality != 2 for p in layout.outputs):
        raise ValueError("expectation needs binary sign outputs")
    i = layout.encode_input(tuple(setting_pair))
    j = layout.encode_output((0, 1))
    return 4 * table.rows[i][j] - 1


@dataclass(frozen=True)
class WeakSignalReport:
    """Outcome of the weak-signal certification for a partitioned table."""

    partition: dict
    feasibility: FeasibilityReport

    @property
    def weak_signal(self) -> bool:
        return not self.feasibility.feasible

    @property
    def certificate(self) -> FarkasCertificate | None:
        return self.feasibility.certificate


def certify_weak_signal(
    target: TransitionTable, partition, cap: int | None = None
) -> WeakSignalReport:
    """Decide whether a table forces signalling behaviours.

    The locality-restricted consistent region is solved exactly: if it is
    empty, every distribution reproducing the table must give nonzero
    probability to signalling functions, which is a weak signal; the
    infeasibility certificate is attached.
    """
    problem = build_consistency_problem(target, cap=cap)
    local = restrict_to_local(problem, partition, cap=cap)
    report = solve_feasibility(local)
    return WeakSignalReport(dict(partition), report)
