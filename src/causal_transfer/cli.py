"""Batch command-line front end.

Subcommands: check-loop, consistent-region, derive-inequalities,
double-bell, enumerate.  Scenario files are JSON; probabilities are exact
rationals ("3/8" strings or exact decimal strings), and JSON floats are
rejected unless --tolerance is given.  Exit codes: 0 for success (and
allowed/feasible verdicts), 2 for forbidden loops and infeasible regions,
1 for input errors.  Machine output (--format machine) is deterministic:
identical inputs give byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

from . import experiments, polytope, spacetime, stochastic, systems
from .rationals import as_fraction, format_fraction, fraction_from_float

GATES = {
    "const0": 0,
    "const+": 0,
    "const1": 1,
    "const-": 1,
    "id": 2,
    "identity": 2,
    "not": 3,
}


class InputError(ValueError):
    """Bad scenario file or flag combination; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class Report:
    command: str
    human: list[str]
    machine: dict
    exit_code: int = 0


def _emit(report: Report, fmt: str, timestamps: bool) -> int:
    if fmt == "machine":
        doc = dict(report.machine)
        doc["command"] = report.command
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        if timestamps:
            print(f"# {datetime.now(timezone.utc).isoformat()}")
        for line in report.human:
            print(line)
    return report.exit_code


def parse_angle(text: str) -> float:
    """Angles in radians; 'pi' forms like pi/3, 2pi/3, -pi/2 are exact."""
    s = str(text).strip().replace(" ", "").replace("*", "")
    if "pi" in s:
        m = re.fullmatch(r"(-?\d*(?:/\d+)?)pi(?:/(\d+))?", s)
        if m is None:
            raise InputError(f"cannot parse angle {text!r}")
        head = m.group(1)
        if head in ("", "-"):
            coef = Fraction(-1 if head == "-" else 1)
        else:
            coef = Fraction(head)
        den = int(m.group(2) or 1)
        return float(coef) * math.pi / den
    try:
        return float(Fraction(s))
    except ValueError as ex:
        raise InputError(f"cannot parse angle {text!r}") from ex


def _angle_list(text) -> tuple[list[str], tuple[float, ...]]:
    """Angle texts and their values, from a comma list or a sequence."""
    if isinstance(text, str):
        text = [a for a in text.split(",") if a.strip()]
    return list(text), tuple(parse_angle(a) for a in text)


def _probability(value, tolerance) -> Fraction:
    if isinstance(value, float):
        if tolerance is None:
            raise InputError(
                f"float probability {value!r} needs --tolerance; use a string like '3/8'"
            )
        return fraction_from_float(value, tolerance)
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as ex:
        raise InputError(str(ex)) from ex


def _layout(doc) -> systems.PortLayout:
    if "inputs" not in doc or "outputs" not in doc:
        raise InputError("a layout needs 'inputs' and 'outputs' port lists")

    def ports(items, side):
        if not isinstance(items, list) or not items:
            raise InputError(f"layout needs a nonempty list of {side} ports")
        specs = []
        for item in items:
            if isinstance(item, dict):
                specs.append(systems.PortSpec(str(item["name"]), int(item["values"])))
            else:
                raise InputError(f"{side} port entries must be objects with name/values")
        return tuple(specs)

    return systems.PortLayout(ports(doc["inputs"], "input"), ports(doc["outputs"], "output"))


def _function_index_from_label(label, layout) -> int:
    text = str(label)
    if text.lower() in GATES and layout.is_elementary_binary:
        return GATES[text.lower()]
    if text.upper().startswith("F"):
        text = text[1:]
    try:
        return int(text)
    except ValueError as ex:
        raise InputError(f"cannot parse function label {label!r}") from ex


def _system(doc, tolerance):
    try:
        layout = _layout(doc)
        sys_id = str(doc["id"])
    except KeyError as ex:
        raise InputError(f"system is missing field {ex}") from ex
    if "table" in doc:
        table = tuple(int(v) for v in doc["table"])
        fn = systems.TransferFunction(layout, table)
        dist = stochastic.TransferDistribution.point_mass(fn)
    elif "weights" in doc:
        weights = {
            _function_index_from_label(k, layout): _probability(v, tolerance)
            for k, v in doc["weights"].items()
        }
        dist = stochastic.TransferDistribution(layout, weights)
    else:
        raise InputError(f"system {sys_id!r} needs a 'table' or 'weights' field")
    return sys_id, layout, dist


def _placements(doc, tolerance) -> dict[str, spacetime.Event]:
    events = {}
    for name, coords in doc.items():
        if isinstance(coords, dict):
            t, x = coords["t"], coords["x"]
        else:
            t, x = coords
        events[str(name)] = spacetime.Event(_probability(t, tolerance), _probability(x, tolerance))
    return events


def _load_file(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise InputError(f"{path} is not valid JSON: {ex}") from ex


def _transition_table(doc, tolerance) -> stochastic.TransitionTable:
    layout = _layout(doc["layout"])
    rows = tuple(
        tuple(_probability(p, tolerance) for p in row) for row in doc["rows"]
    )
    try:
        return stochastic.TransitionTable(layout, rows)
    except ValueError as ex:
        raise InputError(f"malformed transition table: {ex}") from ex


def _partition_from_text(text) -> dict[str, tuple[str, ...]]:
    regions = {}
    for k, chunk in enumerate(text.split(":")):
        names = tuple(n.strip() for n in chunk.split(",") if n.strip())
        if not names:
            raise InputError(f"empty region in partition spec {text!r}")
        regions[chr(ord("A") + k)] = names
    if len(regions) < 2:
        raise InputError("a partition needs at least two regions, e.g. alpha,a:beta,b")
    return regions


def _fraction_map(weights) -> dict[str, str]:
    return {f"F{k}": format_fraction(w) for k, w in sorted(weights.items())}


def _inequality_doc(ineq: polytope.DerivedInequality, layout) -> dict:
    terms, bound = ineq.normalized()
    return {
        "terms": [[i, j, c] for (i, j), c in terms],
        "bound": bound,
        "sense": ineq.sense,
        "text": ineq.render(layout),
        "provenance": ineq.provenance,
    }


# ---------------------------------------------------------------------------
# check-loop


def _split_ref(ref):
    sys_id, dot, port = str(ref).partition(".")
    if not dot or not port:
        raise InputError(f"port reference {ref!r} must look like system.port")
    return sys_id, port


def _loop_order(layouts, links):
    sys_ids = list(layouts)
    succ = {}
    indeg = {s: 0 for s in sys_ids}
    for out_ref, in_ref in links:
        src, out_port = _split_ref(out_ref)
        dst, in_port = _split_ref(in_ref)
        if src not in indeg or dst not in indeg:
            raise InputError(f"link {out_ref} -> {in_ref} references an unknown system")
        if out_port not in {p.name for p in layouts[src].outputs}:
            raise InputError(f"{out_ref}: {out_port!r} is not an output port of {src!r}")
        if in_port not in {p.name for p in layouts[dst].inputs}:
            raise InputError(f"{in_ref}: {in_port!r} is not an input port of {dst!r}")
        if src in succ:
            raise InputError(f"system {src!r} has two outgoing links")
        succ[src] = dst
        indeg[dst] += 1
    if len(succ) != len(sys_ids) or any(v != 1 for v in indeg.values()):
        raise InputError("wiring is not a single cycle covering every system (acyclic or branched)")
    order = [sys_ids[0]]
    while len(order) < len(sys_ids):
        nxt = succ[order[-1]]
        if nxt in order:
            raise InputError("wiring is not a single cycle covering every system")
        order.append(nxt)
    if succ[order[-1]] != order[0]:
        raise InputError("wiring does not close into a loop")
    return order


def cmd_check_loop(args) -> Report:
    if args.file is None:
        raise InputError("check-loop needs a scenario file")
    doc = _load_file(args.file)
    if "preset" in doc:
        return _double_bell_report(
            _double_bell_args_from_preset(doc, args), command="check-loop"
        )
    if "systems" not in doc or "links" not in doc:
        raise InputError("check-loop file needs 'systems' and 'links'")
    parsed = [_system(d, args.tolerance) for d in doc["systems"]]
    by_id = {sid: (layout, dist) for sid, layout, dist in parsed}
    if len(by_id) != len(parsed):
        raise InputError("duplicate system ids")
    links = [tuple(link) for link in doc["links"]]
    order = _loop_order({sid: layout for sid, layout, _ in parsed}, links)

    if "placements" in doc:
        events = _placements(doc["placements"], args.tolerance)
        try:
            wiring = spacetime.validate_classical_wiring(events, links)
        except ValueError as ex:
            raise InputError(str(ex)) from ex
        if not wiring.admissible:
            raise InputError(
                "classical links are not causally admissible: "
                + "; ".join(f"{s}->{d} is {k.value}" for s, d, k in wiring.violations)
            )

    joint = stochastic.JointTransferDistribution.from_marginals(
        [by_id[sid][1] for sid in order]
    )
    try:
        analysis = stochastic.stochastic_loop_analysis(joint)
    except systems.LayoutMismatchError as ex:
        raise InputError(str(ex)) from ex

    verdict = "forbidden" if analysis.forbidden else "allowed"
    human = [
        f"loop order: {' -> '.join(order)} -> {order[0]}",
        f"loop verdict: {verdict}",
        f"contradiction probability: {format_fraction(analysis.contradiction_probability)}",
        "loop transfer distribution:",
    ]
    for k, w in sorted(analysis.loop_distribution.weights.items()):
        fn = systems.function_from_index(analysis.loop_distribution.layout, k)
        fixed = fn.fixed_points()
        human.append(
            f"  F{k} table={list(fn.table)} weight={format_fraction(w)}"
            f" fixed points={list(fixed) if fixed else 'none (forbidden)'}"
        )
    machine = {
        "verdict": verdict,
        "contradiction_probability": format_fraction(analysis.contradiction_probability),
        "loop_order": order,
        "loop_distribution": _fraction_map(analysis.loop_distribution.weights),
    }
    return Report("check-loop", human, machine, 2 if analysis.forbidden else 0)


# ---------------------------------------------------------------------------
# consistent-region


def _preset_table(doc):
    """Transition tables implied by a file preset (bell / simplified-bell)."""
    preset = doc.get("preset") or {}
    name = preset.get("name")
    if name == "bell":
        _, angles = _angle_list(preset.get("angles", ["0", "pi/3", "2pi/3"]))
        if not angles:
            raise InputError("the angle list is empty")
        return experiments.singlet_table(angles)
    if name == "simplified-bell":
        _, angles = _angle_list(preset.get("angles", ["0", "pi/3"]))
        if len(angles) != 2:
            raise InputError("simplified-bell takes exactly two angles")
        return experiments.singlet_table((angles[0],), angles)
    raise InputError(f"preset {name!r} does not define a transition table")


def cmd_consistent_region(args) -> Report:
    if args.file is None:
        raise InputError("consistent-region needs a scenario file")
    doc = _load_file(args.file)
    if "table" in doc:
        table = _transition_table(doc["table"], args.tolerance)
    elif "preset" in doc:
        table = _preset_table(doc)
    else:
        raise InputError("consistent-region file needs a 'table' or 'preset' section")
    problem = polytope.build_consistency_problem(table, cap=args.cap)

    partition = None
    if args.local:
        partition = _partition_from_text(args.local)
    elif "partition" in doc:
        partition = {k: tuple(v) for k, v in doc["partition"].items()}
    if partition is not None:
        problem = polytope.restrict_to_local(problem, partition, cap=args.cap)

    zero_labels = []
    if args.zero:
        for chunk in args.zero:
            zero_labels.extend(x for x in chunk.split(",") if x)
    for label in zero_labels:
        idx = _function_index_from_label(label, table.layout)
        if idx not in problem.variables:
            raise InputError(f"function {label!r} is not among the problem variables")
        problem = polytope.ConsistencyProblem(
            problem.target,
            problem.variables,
            problem.extra + (polytope.LinearConstraint.zero(idx),),
            problem.structure,
        )

    report = polytope.solve_feasibility(problem)
    if not report.verify():
        raise RuntimeError("internal error: feasibility report failed re-validation")
    if report.feasible:
        human = [
            "consistent region: feasible",
            f"variables: {len(problem.variables)} transfer functions",
            "witness transfer distribution:",
        ]
        human += [
            f"  F{k}: {format_fraction(w)}" for k, w in sorted(report.witness.weights.items())
        ]
        machine = {
            "status": "feasible",
            "variables": len(problem.variables),
            "witness": _fraction_map(report.witness.weights),
            "verified": True,
        }
        code = 0
    else:
        human = [
            "consistent region: infeasible (empty region, constraints incompatible)",
            f"variables: {len(problem.variables)} transfer functions",
            "infeasibility certificate (row multipliers, transition rows by (i,j),"
            " then normalization, then extra constraints):",
            "  " + " ".join(format_fraction(y) for y in report.certificate.y),
        ]
        machine = {
            "status": "infeasible",
            "variables": len(problem.variables),
            "certificate": [format_fraction(y) for y in report.certificate.y],
            "verified": True,
        }
        code = 2
    return Report("consistent-region", human, machine, code)


# ---------------------------------------------------------------------------
# derive-inequalities


def cmd_derive_inequalities(args) -> Report:
    doc = _load_file(args.file) if args.file else {}
    preset = args.preset or (doc.get("preset") or {}).get("name")
    layout = None
    if preset == "bell" or (not preset and "angles" in doc):
        angle_text = args.angles
        if angle_text is None:
            angle_text = doc.get("angles")
        if angle_text is None:
            angle_text = (doc.get("preset") or {}).get("angles")
        if angle_text is None:
            angle_text = ["0", "pi/3", "2pi/3"]
        _, angles = _angle_list(angle_text)
        if not angles:
            raise InputError("the angle list is empty")
        scenario = experiments.bell_scenario(angles)
        layout = scenario.table.layout
        inequalities = experiments.bell_inequalities(scenario, method=args.method)
        source = f"bell preset with {len(angles)} angles"
    elif "table" in doc:
        table = _transition_table(doc["table"], args.tolerance)
        layout = table.layout
        problem = polytope.build_consistency_problem(table, cap=args.cap)
        if "partition" in doc:
            partition = {k: tuple(v) for k, v in doc["partition"].items()}
            problem = polytope.restrict_to_local(problem, partition, cap=args.cap)
        elif args.local:
            problem = polytope.restrict_to_local(
                problem, _partition_from_text(args.local), cap=args.cap
            )
        inequalities = polytope.derive_inequalities(problem, method=args.method)
        source = "scenario file"
    else:
        raise InputError("derive-inequalities needs --preset bell or a file with a table")

    human = [f"derived {len(inequalities)} inequalities from {source}:"]
    human += [f"  {q.render(layout)}    [{q.provenance}]" for q in inequalities]
    machine = {
        "count": len(inequalities),
        "inequalities": [_inequality_doc(q, layout) for q in inequalities],
    }
    return Report("derive-inequalities", human, machine, 0)


# ---------------------------------------------------------------------------
# double-bell


def _double_bell_args_from_preset(doc, args):
    preset = doc.get("preset") or {}
    if preset.get("name") not in (None, "double-bell"):
        raise InputError(f"unsupported preset {preset.get('name')!r} for this command")
    merged = argparse.Namespace(**vars(args))
    if "epsilon" in preset and args.epsilon is None:
        merged.epsilon = str(preset["epsilon"])
    if "link_a" in preset and args.link_a is None:
        merged.link_a = str(preset["link_a"])
    if "link_b" in preset and args.link_b is None:
        merged.link_b = str(preset["link_b"])
    if "angles" in preset and args.angles is None:
        merged.angles = ",".join(str(a) for a in preset["angles"])
    return merged


def _gate(name, default_index):
    if name is None:
        index = default_index
    else:
        key = str(name).lower()
        if key not in GATES:
            raise InputError(f"unknown gate {name!r}; use one of {sorted(set(GATES))}")
        index = GATES[key]
    return systems.function_from_index(experiments.CHANNEL_LAYOUT, index)


def _double_bell_report(args, command: str = "double-bell") -> Report:
    epsilon = as_fraction(args.epsilon) if args.epsilon is not None else Fraction(1, 10)
    if not 0 < epsilon <= Fraction(1, 2):
        raise InputError(f"epsilon must be in (0, 1/2], got {epsilon}")
    angle_text, angles = _angle_list(
        args.angles if args.angles is not None else "0,pi/3,2pi/3"
    )
    if len(angles) != 3:
        raise InputError("the violation evidence needs exactly three angles")

    table = experiments.singlet_table(angles)
    evidence = polytope.certify_weak_signal(table, experiments.bell_partition())
    if not evidence.weak_signal:
        raise InputError(
            "the singlet table at these angles is locally explainable; no weak signal"
        )
    lorentz = not getattr(args, "no_lorentz_symmetry", False)
    try:
        # SimplifiedBell is frozen, so one instance serves both experiments.
        simplified = experiments.build_simplified_bell(evidence, lorentz, epsilon)
    except ValueError as ex:
        raise InputError(str(ex)) from ex
    net = experiments.build_double_bell_network(
        primed=simplified,
        unprimed=simplified,
        link_a=_gate(args.link_a, 2),
        link_b=_gate(args.link_b, 3),
    )
    verdict = experiments.double_bell_verdict(net)

    scenario = experiments.bell_scenario(angles, table)
    vio = experiments.bell_violation_report(scenario)

    status = "forbidden" if verdict.forbidden else "allowed"
    human = [
        f"violation evidence at angles {', '.join(angle_text)}:"
        f" min instance {format_fraction(vio.minimum)} (weak signal certified)",
        f"channel weights per experiment: {_fraction_map(simplified.channel.weights)}",
        f"links: A={net.link_a.label} (table {list(net.link_a.table)}),"
        f" B={net.link_b.label} (table {list(net.link_b.table)})",
        f"loop: {' -> '.join(verdict.loop_ports)} -> {verdict.loop_ports[0]}",
        f"loop verdict: {status}",
        f"contradiction probability: {format_fraction(verdict.contradiction_probability)}",
    ]
    machine = {
        "verdict": status,
        "contradiction_probability": format_fraction(verdict.contradiction_probability),
        "violation_minimum": format_fraction(vio.minimum),
        "channel": _fraction_map(simplified.channel.weights),
        "links": {"A": net.link_a.label, "B": net.link_b.label},
        "factorized": net.factorized,
    }
    if verdict.forbidden:
        audit = experiments.assumption_audit(verdict)
        human.append("assumption audit:")
        for e in audit.entries:
            tag = "" if e.computed else " [interpretive]"
            human.append(f"  {e.assumption}: {e.status}{tag}; {e.note}")
        machine["audit"] = [
            {
                "assumption": e.assumption,
                "status": e.status,
                "computed": e.computed,
                "note": e.note,
            }
            for e in audit.entries
        ]
    return Report(command, human, machine, 2 if verdict.forbidden else 0)


def cmd_double_bell(args) -> Report:
    if args.file:
        doc = _load_file(args.file)
        args = _double_bell_args_from_preset(doc, args)
    return _double_bell_report(args)


# ---------------------------------------------------------------------------
# enumerate


def _cardinalities(text, side) -> tuple[systems.PortSpec, ...]:
    specs = []
    for k, chunk in enumerate(x for x in text.split(",") if x.strip()):
        chunk = chunk.strip()
        if ":" in chunk:
            name, _, card = chunk.partition(":")
            specs.append(systems.PortSpec(name.strip(), int(card)))
        else:
            specs.append(systems.PortSpec(f"{side}{k}", int(chunk)))
    if not specs:
        raise InputError(f"no {side} ports given")
    return tuple(specs)


def cmd_enumerate(args) -> Report:
    if args.file:
        doc = _load_file(args.file)
        if "layout" in doc:
            doc = doc["layout"]
        elif "table" in doc and "layout" in doc["table"]:
            doc = doc["table"]["layout"]
        layout = _layout(doc)
    elif args.inputs and args.outputs:
        layout = systems.PortLayout(
            _cardinalities(args.inputs, "i"), _cardinalities(args.outputs, "o")
        )
    else:
        raise InputError("enumerate needs --inputs and --outputs, or a layout file")
    try:
        fns = systems.enumerate_transfer_functions(layout, cap=args.cap)
    except systems.CapExceededError as ex:
        raise InputError(str(ex)) from ex
    names = {0: "const0", 1: "const1", 2: "identity", 3: "NOT"}
    human = [
        f"{layout.n_inputs} joint inputs, {layout.n_outputs} joint outputs: "
        f"{systems.count_transitions(layout)} transitions, {len(fns)} transfer functions"
    ]
    for f in fns:
        extra = f" ({names[f.index]})" if layout.is_elementary_binary else ""
        human.append(f"  {f.label}: {list(f.table)}{extra}")
    machine = {
        "transitions": systems.count_transitions(layout),
        "count": len(fns),
        "functions": [{"label": f.label, "table": list(f.table)} for f in fns],
    }
    return Report("enumerate", human, machine, 0)


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="causal-transfer",
        description="Transfer-function analysis: causal loops, consistent regions, "
        "Bell-type inequalities, and the double Bell construction.",
        epilog="exit codes: 0 success/allowed/feasible, "
        "2 forbidden loop or infeasible region, 1 input error",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="accept float probabilities, rounded to rationals within this tolerance",
    )
    parser.add_argument(
        "--timestamps", action="store_true", help="prepend a timestamp to text output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-loop", help="classify a cyclic wiring as allowed or forbidden")
    p.add_argument("file", nargs="?")
    p.set_defaults(handler=cmd_check_loop, epsilon=None, link_a=None, link_b=None, angles=None)

    p = sub.add_parser("consistent-region", help="feasibility of the transfer-probability region")
    p.add_argument("file", nargs="?")
    p.add_argument("--local", help="locality restriction, e.g. alpha,a:beta,b")
    p.add_argument("--zero", action="append", help="force transfer functions to zero, e.g. F2,F3")
    p.set_defaults(handler=cmd_consistent_region)

    p = sub.add_parser("derive-inequalities", help="inequalities implied by nonnegative transfer probabilities")
    p.add_argument("file", nargs="?")
    p.add_argument("--preset", choices=("bell",))
    p.add_argument("--angles", help="comma list, e.g. 0,pi/3,2pi/3")
    p.add_argument("--local", help="locality restriction for file scenarios")
    p.add_argument("--method", choices=("auto", "solve", "facets"), default="auto")
    p.set_defaults(handler=cmd_derive_inequalities)

    p = sub.add_parser("double-bell", help="full pipeline: evidence, channels, loop verdict, audit")
    p.add_argument("file", nargs="?")
    p.add_argument("--epsilon", help="weight of each signalling channel function, in (0, 1/2]")
    p.add_argument("--link-a", dest="link_a", help="classical link at A (identity/not/const0/const1)")
    p.add_argument("--link-b", dest="link_b", help="classical link at B")
    p.add_argument("--angles", help="angles for the violation evidence")
    p.add_argument(
        "--no-lorentz-symmetry",
        dest="no_lorentz_symmetry",
        action="store_true",
        help="drop the symmetry assumption (the channel inference then refuses)",
    )
    p.set_defaults(handler=cmd_double_bell)

    p = sub.add_parser("enumerate", help="list all transfer functions of a layout")
    p.add_argument("file", nargs="?")
    p.add_argument("--inputs", help="input cardinalities, e.g. 2 or a:2,b:3")
    p.add_argument("--outputs", help="output cardinalities")
    p.set_defaults(handler=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    return _emit(report, args.format, args.timestamps)


if __name__ == "__main__":
    sys.exit(main())
