"""Spans around the library's layers, recorded from outside the library.

Each wrapped function is replaced at the attribute where its callers look
it up (a module global or a class attribute), so the library itself is
not edited.  A span records its phase, the op it belongs to, its own id,
the id of the span that caused it, its name, start and end, and its self
time: its duration minus the time its direct child spans cover.  Counts
observed at the same boundaries (problem sizes, bit lengths) are kept as
the largest value seen per phase.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# Prefix of the stderr line on which a traced child process reports.
TRACE_MARK = "BENCH-TRACE "


def _bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    best = 0
    for v in values:
        best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (phase, op, id, parent, name, start_ns, end_ns, self_ns)
        self.counters: dict[str, dict[str, float]] = {}
        self.phase = "setup"
        self.op = None
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, value) -> None:
        bucket = self.counters.setdefault(self.phase, {})
        bucket[name] = max(bucket.get(name, value), value)

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                label = name(result) if callable(name) else name
                tracer.spans.append(
                    (tracer.phase, tracer.op, span_id, parent, label, start, end,
                     duration - frame[1])
                )
                if observe is not None and result is not None:
                    for key, value in observe(result, args).items():
                        tracer.count(key, value)

        return wrapper

    def patch(self, owner, attr, name, observe=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def merge(self, spans, counters) -> None:
        """Add the spans and counters a traced child process reported."""
        base = self._next_id
        top = 0
        for _, _, span_id, parent, name, start, end, self_ns in spans:
            self.spans.append(
                (self.phase, self.op, base + span_id,
                 None if parent is None else base + parent, name, start, end, self_ns)
            )
            top = max(top, span_id + 1)
        self._next_id = base + top
        for key, value in counters.items():
            self.count(key, value)

    @contextmanager
    def in_phase(self, phase: str):
        previous = self.phase
        self.phase = phase
        try:
            yield
        finally:
            self.phase = previous

    # -- aggregation -----------------------------------------------------

    def layers(self, phases) -> dict[str, dict[str, float]]:
        """Per span name: calls and total self time (ns) over the phases."""
        out: dict[str, dict[str, float]] = {}
        for phase, _, _, _, name, _, _, self_ns in self.spans:
            if phase in phases:
                entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
                entry["calls"] += 1
                entry["self_ns"] += self_ns
        return out

    def top_level_ns(self, phase: str) -> int:
        """Time covered by spans with no parent span, summed over the phase."""
        return sum(
            end - start
            for ph, _, _, parent, _, start, end, _ in self.spans
            if ph == phase and parent is None
        )

    def counter_values(self, phases) -> dict[str, float]:
        out: dict[str, float] = {}
        for phase in phases:
            for key, value in self.counters.get(phase, {}).items():
                out[key] = max(out.get(key, value), value)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer function the workloads reach, where it is looked up."""
    from causal_transfer import experiments, hull, polytope, stochastic

    def sized(key):
        return lambda problem, args: {key: len(problem.variables)}

    for owner in (polytope, experiments):
        tracer.patch(owner, "build_consistency_problem",
                     "polytope.build_consistency_problem", sized("polytope.enumerated"))
        tracer.patch(owner, "restrict_to_local",
                     "polytope.restrict_to_local", sized("polytope.local_kept"))
        tracer.patch(owner, "derive_inequalities", "polytope.derive_inequalities")
    tracer.patch(polytope, "solve_feasibility", "polytope.solve_feasibility")
    tracer.patch(polytope, "restricted_vertices", "polytope.restricted_vertices")
    tracer.patch(
        polytope.ConsistencyProblem, "equation_rows", "polytope.equation_rows",
        lambda rows_rhs, args: {
            "polytope.tableau_rows": len(rows_rhs[0]),
            "polytope.tableau_cols": len(rows_rhs[0][0]) if rows_rhs[0] else 0,
        },
    )
    tracer.patch(polytope.FeasibilityReport, "verify", "polytope.verify")
    tracer.patch(
        polytope, "solve_equality_feasibility",
        lambda r: "simplex.solve" if r is None
        else ("simplex.feasible" if r.feasible else "simplex.infeasible"),
        lambda r, args: {"simplex.witness_bits": _bits(r.point)} if r.feasible
        else {"simplex.certificate_bits": _bits(r.certificate.y)},
    )
    tracer.patch(
        hull, "facet_inequalities", "hull.facet_inequalities",
        lambda facets, args: {"hull.points": len(args[0]), "hull.facets": len(facets)},
    )
    tracer.patch(experiments, "singlet_table", "experiments.singlet_table")
    for owner in (experiments, stochastic):
        tracer.patch(
            owner, "stochastic_loop_analysis", "stochastic.stochastic_loop_analysis",
            lambda analysis, args: {"stochastic.loop_terms": len(args[0].weights)},
        )


@contextmanager
def installed(tracer: Tracer):
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()
