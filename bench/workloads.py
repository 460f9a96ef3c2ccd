"""Seeded workload inputs, the timed operation, and the exact answer checks.

Every workload is a list of inputs made of whole cycles.  One cycle holds
the workload's fixed mix (which visibilities, which polytopes, which
subcommands); the seed only decides the order within a cycle and the
details that must not change the answer or the mix (setting and port
permutations, epsilons, gates, small random tables).  A run measures whole
cycles, so every run of every seed times the same mix.

The library receives only the generated inputs.  The checks use answers
pinned from the library as of this benchmark's introduction, known answers
from the literature, and exact re-evaluation; no float decides anything.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
from causal_transfer import experiments, polytope, stochastic, systems
from causal_transfer.rationals import format_fraction

BENCH_DIR = Path(__file__).resolve().parent
CLI_CHILD = BENCH_DIR / "cli_child.py"
CLI_TIMEOUT_S = 120

ANGLES = (0.0, math.pi / 3, 2 * math.pi / 3)
ANGLE_TEXT = ("0", "pi/3", "2pi/3")
PERMUTATIONS = tuple(itertools.permutations(range(3)))


# ---------------------------------------------------------------------------
# certify


VISIBILITIES = tuple(Fraction(k, 20) for k in range(10, 21))
# Pinned from the library at the benchmark's introduction: the noisy
# 3-setting singlet has no local model (a weak signal is certified) exactly
# when the visibility is at least 17/20, whatever the setting permutation.
WEAK_SIGNAL_FROM = Fraction(17, 20)


@dataclass(frozen=True)
class CertifyInput:
    visibility: Fraction
    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    table: stochastic.TransitionTable


def white_noise_mix(table: stochastic.TransitionTable, visibility: Fraction):
    """v * table + (1 - v) * uniform, exactly."""
    uniform = Fraction(1, table.layout.n_outputs)
    rows = tuple(
        tuple(visibility * p + (1 - visibility) * uniform for p in row)
        for row in table.rows
    )
    return stochastic.TransitionTable(table.layout, rows)


class Certify:
    """Weak-signal certification of noisy, permuted 3-setting singlet tables.

    A cycle is the eleven visibilities 10/20..20/20 in seeded order, so
    every cycle has 4 infeasible ops (Farkas certificate) and 7 feasible
    ones (witness).  Setting-permutation pairs are dealt from a shuffled
    deck of all 36, so a run covers them evenly.
    """

    name = "certify"
    cycle = len(VISIBILITIES)
    cycles_generated = 12

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = random.Random(seed)
        self.partition = experiments.bell_partition()
        pairs = [(pa, pb) for pa in PERMUTATIONS for pb in PERMUTATIONS]
        deck: list = []
        tables = {}
        self.items: list[CertifyInput] = []
        for _ in range(self.cycles_generated):
            order = list(VISIBILITIES)
            rng.shuffle(order)
            for v in order:
                if not deck:
                    deck = pairs[:]
                    rng.shuffle(deck)
                pa, pb = deck.pop()
                if (pa, pb) not in tables:
                    tables[pa, pb] = experiments.singlet_table(
                        tuple(ANGLES[k] for k in pa), tuple(ANGLES[k] for k in pb)
                    )
                self.items.append(CertifyInput(v, pa, pb, white_noise_mix(tables[pa, pb], v)))

    def warmup(self) -> list[CertifyInput]:
        """One untimed op per verdict before the timed loop."""
        return [
            next(it for it in self.items if it.visibility >= WEAK_SIGNAL_FROM),
            next(it for it in self.items if it.visibility < WEAK_SIGNAL_FROM),
        ]

    def run(self, item: CertifyInput, tracer=None):
        report = polytope.certify_weak_signal(item.table, self.partition)
        return report.weak_signal, report.feasibility.verify()

    def check(self, item: CertifyInput, result) -> bool:
        weak_signal, verified = result
        return verified and weak_signal == (item.visibility >= WEAK_SIGNAL_FROM)

    @staticmethod
    def expected_verdicts(items) -> str:
        """Verdict fingerprint of an input sequence: W weak signal, L local."""
        return "".join("W" if it.visibility >= WEAK_SIGNAL_FROM else "L" for it in items)

    @classmethod
    def census(cls, workdir: Path | None = None):
        """One feasible and one infeasible op at fixed inputs."""
        wl = cls.__new__(cls)
        wl.partition = experiments.bell_partition()
        base = experiments.singlet_table(ANGLES)
        ident = PERMUTATIONS[0]
        wl.items = [
            CertifyInput(v, ident, ident, white_noise_mix(base, v))
            for v in (Fraction(14, 20), Fraction(18, 20))
        ]
        return wl


# ---------------------------------------------------------------------------
# facets


# Known facet counts of the locality-only local polytopes with two-outcome
# parties (Fine 1982 for 2x2: 16 positivity + 8 CHSH).
FACET_COUNTS = {(2, 2): 24, (2, 3): 48, (3, 2): 48}
# One cycle: each size with each input-port order once, as (settings,
# swapped).  Port order changes the cost of an op by up to 15%, so it is
# part of the fixed mix and the seed decides only the order.  The three
# sizes take about 0.1, 0.85 and 0.95 s: the median falls among the eight
# slow ops of two cycles, the tail among the slowest of them.
FACET_CYCLE = tuple(
    (settings, swapped) for settings in ((2, 2), (2, 3), (3, 2)) for swapped in (False, True)
)


@dataclass(frozen=True)
class FacetInput:
    settings: tuple[int, int]
    swapped: bool  # input ports listed as (beta, alpha)
    problem: polytope.ConsistencyProblem


def local_polytope_problem(n_a: int, n_b: int, swapped: bool) -> polytope.ConsistencyProblem:
    inputs = [systems.PortSpec("alpha", n_a), systems.PortSpec("beta", n_b)]
    if swapped:
        inputs.reverse()
    layout = systems.PortLayout(
        tuple(inputs), (systems.PortSpec("a", 2), systems.PortSpec("b", 2))
    )
    share = Fraction(1, layout.n_outputs)
    table = stochastic.TransitionTable(
        layout, tuple((share,) * layout.n_outputs for _ in range(layout.n_inputs))
    )
    problem = polytope.build_consistency_problem(table)
    return polytope.restrict_to_local(problem, experiments.bell_partition())


def local_vertices(layout: systems.PortLayout) -> list[dict]:
    """Deterministic local behaviours as 0/1 points over (i, j) symbols,
    enumerated here independently of the library's restriction."""
    names = [p.name for p in layout.inputs]
    cards = {p.name: p.cardinality for p in layout.inputs}
    points = []
    for sa in itertools.product((0, 1), repeat=cards["alpha"]):
        for sb in itertools.product((0, 1), repeat=cards["beta"]):
            point = {}
            for i in range(layout.n_inputs):
                values = dict(zip(names, layout.decode_input(i)))
                j = layout.encode_output((sa[values["alpha"]], sb[values["beta"]]))
                point[(i, j)] = 1
            points.append(point)
    return points


def affine_dimension(points: list[dict], symbols) -> int:
    """Exact rank of the point differences."""
    rows = [
        [Fraction(p.get(s, 0) - points[0].get(s, 0)) for s in symbols] for p in points[1:]
    ]
    rank = 0
    for col in range(len(symbols)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def facets_hold(inequalities, points, dim: int) -> bool:
    """Every inequality holds at every vertex and is tight on at least dim
    of them, as a facet of a dim-dimensional polytope must be."""
    for ineq in inequalities:
        tight = 0
        for point in points:
            value = sum(c * point.get(sym, 0) for sym, c in ineq.coefficients)
            slack = value - ineq.bound if ineq.sense == ">=" else ineq.bound - value
            if slack < 0:
                return False
            tight += slack == 0
        if tight < dim:
            return False
    return True


class Facets:
    """Facet enumeration of the 2x2, 2x3 and 3x2 local polytopes, each in
    both input-port orders."""

    name = "facets"
    cycle = len(FACET_CYCLE)
    cycles_generated = 16

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = random.Random(seed)
        problems = {}
        self.items: list[FacetInput] = []
        for _ in range(self.cycles_generated):
            order = list(FACET_CYCLE)
            rng.shuffle(order)
            for settings, swapped in order:
                if (settings, swapped) not in problems:
                    problems[settings, swapped] = local_polytope_problem(*settings, swapped)
                self.items.append(FacetInput(settings, swapped, problems[settings, swapped]))
        self._verified: dict = {}
        self.affine_dims: dict = {}

    def warmup(self) -> list[FacetInput]:
        """One untimed op per polytope size before the timed loop."""
        return list({it.settings: it for it in reversed(self.items)}.values())

    def run(self, item: FacetInput, tracer=None):
        return polytope.derive_inequalities(item.problem, method="facets")

    def check(self, item: FacetInput, result) -> bool:
        key = (item.settings, item.swapped)
        if key in self._verified:
            return result == self._verified[key]
        if len(result) != FACET_COUNTS[item.settings]:
            return False
        if len({ineq.normalized() for ineq in result}) != len(result):
            return False
        layout = item.problem.layout
        symbols = [(i, j) for i in range(layout.n_inputs) for j in range(layout.n_outputs)]
        points = local_vertices(layout)
        dim = affine_dimension(points, symbols)
        if not facets_hold(result, points, dim):
            return False
        self.affine_dims[key] = dim
        self._verified[key] = result
        return True

    @classmethod
    def census(cls, workdir: Path | None = None):
        wl = cls.__new__(cls)
        wl.items = [FacetInput((2, 2), False, local_polytope_problem(2, 2, False))]
        wl._verified, wl.affine_dims = {}, {}
        return wl


# ---------------------------------------------------------------------------
# cli


GATE_NAMES = ("const0", "const1", "identity", "not")
GATE_INDEX = {"const0": 0, "const1": 1, "identity": 2, "not": 3}
CLI_KINDS = (
    "double-bell-forbidden",
    "double-bell-allowed",
    "derive-inequalities",
    "consistent-region-local",
    "consistent-region-table",
    "check-loop",
    "enumerate",
)


@dataclass(frozen=True)
class CliInput:
    kind: str
    argv: tuple[str, ...]
    params: tuple  # what the expected answer depends on

    @property
    def command(self) -> str:
        return self.argv[0]


def _random_row(rng: random.Random, n: int, denominator: int) -> list[Fraction]:
    cuts = sorted(rng.randint(0, denominator) for _ in range(n - 1))
    bounds = [0] + cuts + [denominator]
    return [Fraction(b - a, denominator) for a, b in zip(bounds, bounds[1:])]


class Cli:
    """One fresh `python -m causal_transfer --format machine` process per op."""

    name = "cli"
    cycle = len(CLI_KINDS)
    cycles_generated = 16

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.items: list[CliInput] = []
        for c in range(self.cycles_generated):
            kinds = list(CLI_KINDS)
            rng.shuffle(kinds)
            for kind in kinds:
                self.items.append(self._make(kind, rng, f"c{c}"))
        self._expected: dict = {}
        self._evidence = None

    def _write(self, stem: str, doc) -> str:
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _make(self, kind: str, rng: random.Random, tag: str) -> CliInput:
        if kind.startswith("double-bell"):
            eps = Fraction(rng.randint(1, 10), 20)
            if kind.endswith("forbidden"):
                link_a, link_b = rng.choice(GATE_NAMES[2:]), rng.choice(GATE_NAMES[2:])
            else:
                link_a, link_b = rng.choice(
                    [(a, b) for a in GATE_NAMES for b in GATE_NAMES
                     if a.startswith("const") or b.startswith("const")]
                )
            argv = ("double-bell", "--epsilon", format_fraction(eps),
                    "--link-a", link_a, "--link-b", link_b)
            return CliInput(kind, argv, (eps, link_a, link_b))
        if kind == "derive-inequalities":
            perm = rng.choice(PERMUTATIONS)
            angles = ",".join(ANGLE_TEXT[k] for k in perm)
            return CliInput(kind, ("derive-inequalities", "--preset", "bell", "--angles", angles), (perm,))
        if kind == "consistent-region-local":
            perm = rng.choice(PERMUTATIONS)
            path = self._write(f"{tag}-{kind}", {
                "preset": {"name": "bell", "angles": [ANGLE_TEXT[k] for k in perm]}
            })
            return CliInput(kind, ("consistent-region", path, "--local", "alpha,a:beta,b"), (perm,))
        if kind == "consistent-region-table":
            rows = tuple(tuple(_random_row(rng, 3, 12)) for _ in range(2))
            path = self._write(f"{tag}-{kind}", {"table": {
                "layout": {"inputs": [{"name": "x", "values": 2}],
                           "outputs": [{"name": "y", "values": 3}]},
                "rows": [[format_fraction(p) for p in row] for row in rows],
            }})
            return CliInput(kind, ("consistent-region", path), (rows,))
        if kind == "check-loop":
            weights = []
            for _ in range(2):
                probs = _random_row(rng, 4, 12)
                weights.append(tuple((g, p) for g, p in zip(GATE_NAMES, probs) if p))
            binary = {"inputs": [{"name": "in", "values": 2}],
                      "outputs": [{"name": "out", "values": 2}]}
            path = self._write(f"{tag}-{kind}", {
                "systems": [
                    dict(binary, id=f"S{k}", weights={g: format_fraction(p) for g, p in w})
                    for k, w in enumerate(weights)
                ],
                "links": [["S0.out", "S1.in"], ["S1.out", "S0.in"]],
            })
            return CliInput(kind, ("check-loop", path), tuple(weights))
        if kind == "enumerate":
            inputs = rng.choice(("2", "3", "2,2"))
            outputs = rng.choice(("2", "3"))
            return CliInput(kind, ("enumerate", "--inputs", inputs, "--outputs", outputs),
                            (inputs, outputs))
        raise ValueError(kind)

    def warmup(self) -> list[CliInput]:
        """One untimed process before the timed loop."""
        return self.items[:1]

    def run(self, item: CliInput, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "causal_transfer"]
        else:
            cmd = [sys.executable, str(CLI_CHILD)]
        proc = subprocess.run(
            cmd + ["--format", "machine", *item.argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if tracer is not None:
            for line in proc.stderr.splitlines():
                if line.startswith(tracing.TRACE_MARK):
                    doc = json.loads(line[len(tracing.TRACE_MARK):])
                    tracer.merge(doc["spans"], doc["counters"])
        return proc.returncode, proc.stdout

    # -- expected answers, computed in process --------------------------

    def _expected_answer(self, item: CliInput):
        """(exit code, answer fields) the library gives for the same input."""
        if item.kind.startswith("double-bell"):
            eps, link_a, link_b = item.params
            if self._evidence is None:
                self._evidence = polytope.certify_weak_signal(
                    experiments.singlet_table(ANGLES), experiments.bell_partition()
                )
            sides = [experiments.build_simplified_bell(self._evidence, True, eps) for _ in range(2)]
            links = [
                systems.function_from_index(experiments.CHANNEL_LAYOUT, GATE_INDEX[name])
                for name in (link_a, link_b)
            ]
            net = experiments.build_double_bell_network(
                primed=sides[0], unprimed=sides[1], link_a=links[0], link_b=links[1]
            )
            verdict = experiments.double_bell_verdict(net)
            status = "forbidden" if verdict.forbidden else "allowed"
            return (2 if verdict.forbidden else 0), {
                "verdict": status,
                "contradiction_probability": format_fraction(verdict.contradiction_probability),
            }
        if item.kind == "derive-inequalities":
            (perm,) = item.params
            scenario = experiments.bell_scenario(tuple(ANGLES[k] for k in perm))
            return 0, {"count": len(experiments.bell_inequalities(scenario))}
        if item.kind in ("consistent-region-local", "consistent-region-table"):
            if item.kind == "consistent-region-local":
                (perm,) = item.params
                table = experiments.singlet_table(tuple(ANGLES[k] for k in perm))
                problem = polytope.restrict_to_local(
                    polytope.build_consistency_problem(table), experiments.bell_partition()
                )
            else:
                (rows,) = item.params
                layout = systems.PortLayout(
                    (systems.PortSpec("x", 2),), (systems.PortSpec("y", 3),)
                )
                problem = polytope.build_consistency_problem(
                    stochastic.TransitionTable(layout, rows)
                )
            report = polytope.solve_feasibility(problem)
            if report.feasible:
                return 0, {"status": "feasible", "witness": {
                    f"F{k}": format_fraction(w) for k, w in sorted(report.witness.weights.items())
                }}
            return 2, {"status": "infeasible",
                       "certificate": [format_fraction(y) for y in report.certificate.y]}
        if item.kind == "check-loop":
            layout = experiments.CHANNEL_LAYOUT
            dists = [
                stochastic.TransferDistribution(layout, {GATE_INDEX[g]: p for g, p in w})
                for w in item.params
            ]
            analysis = stochastic.stochastic_loop_analysis(
                stochastic.JointTransferDistribution.from_marginals(dists)
            )
            return (2 if analysis.forbidden else 0), {
                "verdict": "forbidden" if analysis.forbidden else "allowed",
                "contradiction_probability": format_fraction(analysis.contradiction_probability),
            }
        if item.kind == "enumerate":
            inputs, outputs = item.params
            layout = systems.PortLayout(
                tuple(systems.PortSpec(f"i{k}", int(c)) for k, c in enumerate(inputs.split(","))),
                tuple(systems.PortSpec(f"o{k}", int(c)) for k, c in enumerate(outputs.split(","))),
            )
            return 0, {"count": len(systems.enumerate_transfer_functions(layout))}
        raise ValueError(item.kind)

    def check(self, item: CliInput, result) -> bool:
        code, stdout = result
        key = (item.kind, item.params)
        if key not in self._expected:
            self._expected[key] = self._expected_answer(item)
        want_code, want_fields = self._expected[key]
        if code != want_code:
            return False
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        if doc.get("command") != item.command:
            return False
        return all(doc.get(k) == v for k, v in want_fields.items())

    @classmethod
    def census(cls, workdir: Path):
        """One op of each subcommand at fixed inputs."""
        wl = cls.__new__(cls)
        wl.workdir = Path(workdir)
        rng = random.Random(0)
        kinds = ("double-bell-forbidden", "derive-inequalities", "consistent-region-local",
                 "check-loop", "enumerate")
        wl.items = [wl._make(kind, rng, "census") for kind in kinds]
        wl._expected, wl._evidence = {}, None
        return wl


WORKLOADS = {cls.name: cls for cls in (Certify, Facets, Cli)}
