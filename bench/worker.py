"""Workload process: set up, report ready, run the timed loop, report results.

Started by run.py, one fresh interpreter per launch:

    python bench/worker.py --workload certify --seed 1 --seconds 24 \
        --mode run --workdir DIR

Setup (interpreter start, `import causal_transfer`, input generation) ends
with a "ready" line on stdout.  Mode "setup" exits there.  Modes "run" and
"trace" wait for a "go" line, run one client in a closed loop over whole
cycles of the inputs, check every answer, and print one JSON line.  In
mode "run" the worker also prints "pause" before each timed op and after
the last one, and waits for another "go".
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

# Per-layer spans reported as mean self time per call, and those whose call
# count is reported too.
LAYER_TIMES = (
    "experiments.singlet_table",
    "polytope.build_consistency_problem",
    "polytope.restrict_to_local",
    "polytope.equation_rows",
    "polytope.verify",
    "polytope.derive_inequalities",
    "polytope.restricted_vertices",
    "simplex.infeasible",
    "simplex.feasible",
    "hull.facet_inequalities",
    "stochastic.stochastic_loop_analysis",
)
LAYER_CALLS = ("experiments.singlet_table", "simplex.infeasible", "simplex.feasible")
COUNTERS = (
    "polytope.enumerated",
    "polytope.local_kept",
    "polytope.tableau_rows",
    "polytope.tableau_cols",
    "simplex.certificate_bits",
    "simplex.witness_bits",
    "hull.points",
    "hull.facets",
    "stochastic.loop_terms",
)
# Share of the traced time used by each of the untraced and traced loops;
# the rest goes to the census and the parent's import measurements.
TRACE_LOOP_SHARE = 0.4
# Least number of ops in the measured loop, so that the tail percentile,
# with ten ops beyond it, lies well above the median.  Only facets on a
# slow host needs more than --seconds for it: its cycle of six ops took
# 3.5-7.5 s.
MIN_OPS = 30


class Loop:
    """One client's ops, run one at a time, each checked right after it.

    The loop clock counts op time only: it stops while an answer is
    checked and while the parent samples the reference and set-up time
    between ops.
    Results are dropped once checked, so memory does not grow with the
    number of ops.
    """

    def __init__(self):
        self.items: list = []
        self.durations: list[float] = []
        self.ok: list[bool] = []
        self.errors: list[str] = []
        self.cycles = 0

    @property
    def seconds(self) -> float:
        return sum(self.durations)

    def _op(self, wl, item, tracer) -> None:
        t0 = time.perf_counter()
        try:
            result = wl.run(item, tracer)
        except Exception as ex:  # an op that raises is a failed op
            result = ex
        self.durations.append(time.perf_counter() - t0)
        self.items.append(item)
        if tracer is None:
            self._check(wl, item, result)
        else:
            with tracer.in_phase("check"):
                self._check(wl, item, result)

    def _check(self, wl, item, result) -> None:
        if isinstance(result, Exception):
            good = False
            self.errors.append(f"{type(result).__name__}: {result}")
        else:
            try:
                good = bool(wl.check(item, result))
            except Exception as ex:  # a malformed answer is a failed op
                good = False
                self.errors.append(f"check {type(ex).__name__}: {ex}")
            if not good:
                self.errors.append(f"wrong answer for {item!r}"[:300])
        self.ok.append(good)

    @classmethod
    def timed(
        cls, wl, seconds: float, tracer=None, between_ops=None, min_ops: int = 0
    ) -> "Loop":
        """Closed loop over whole cycles of wl.items for about `seconds`, and
        for at least min_ops ops; between_ops, if given, is called before
        each op and after the last."""
        loop = cls()
        k = 0
        while True:
            for _ in range(wl.cycle):
                if between_ops is not None:
                    between_ops()
                if tracer is not None:
                    tracer.op = k
                loop._op(wl, wl.items[k % len(wl.items)], tracer)
                k += 1
            loop.cycles += 1
            elapsed = loop.seconds
            # Start another cycle only if it should end within the budget.
            if k >= min_ops and elapsed + elapsed / loop.cycles > seconds:
                if between_ops is not None:
                    between_ops()
                return loop

    @classmethod
    def once(cls, wl, items, tracer=None) -> "Loop":
        """Each of the items once: warm-up or census."""
        loop = cls()
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.op = f"{wl.name}-once-{k}"
            loop._op(wl, item, tracer)
        return loop

    @property
    def ops_per_s(self) -> float:
        return sum(self.ok) / self.seconds

    def summary(self) -> dict:
        return {
            "durations": self.durations,
            "ok": self.ok,
            "loop_s": self.seconds,
            "cycles": self.cycles,
            "errors": self.errors[:5],
        }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer: tracing.Tracer, command_times: dict) -> dict:
    """Per-layer figures from the workload's own setup and loop spans, or,
    for layers the workload never reaches, from the census."""
    main = tracer.layers(("setup", "loop"))
    census = tracer.layers(("census",))
    metrics = {}
    for name in LAYER_TIMES:
        entry = main.get(name) or census.get(name) or {"calls": 0, "self_ns": 0}
        calls = entry["calls"]
        metrics[f"{name}.self_ms"] = entry["self_ns"] / calls / 1e6 if calls else 0.0
        if name in LAYER_CALLS:
            metrics[f"{name}.calls"] = calls
    main_counts = tracer.counter_values(("setup", "loop"))
    census_counts = tracer.counter_values(("census",))
    for name in COUNTERS:
        metrics[name] = main_counts.get(name, census_counts.get(name, 0))
    enumerated = metrics["polytope.enumerated"]
    metrics["polytope.local_yield"] = (
        metrics["polytope.local_kept"] / enumerated if enumerated else 0.0
    )
    for command, values in command_times.items():
        metrics[f"cli.{command}_ms"] = statistics.median(values) * 1e3
    return metrics


def command_durations(loop: Loop) -> dict:
    out: dict[str, list[float]] = {}
    for item, duration in zip(loop.items, loop.durations):
        out.setdefault(item.command, []).append(duration)
    return out


def trace_run(cls, wl, args) -> dict:
    """Untraced loop, then the same inputs traced, then the census."""
    split = args.seconds * TRACE_LOOP_SHARE
    warm = Loop.once(wl, wl.warmup())
    plain = Loop.timed(wl, split)

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.in_phase("setup"):
            traced_wl = cls(args.seed, Path(args.workdir))
        with tracer.in_phase("loop"):
            traced = Loop.timed(traced_wl, split, tracer)
        census = {}
        with tracer.in_phase("census"):
            for census_cls in workloads.WORKLOADS.values():
                census_wl = census_cls.census(Path(args.workdir))
                census[census_cls.name] = (
                    census_wl, Loop.once(census_wl, census_wl.items, tracer)
                )

    cli_loop = plain if cls is workloads.Cli else census["cli"][1]
    metrics = layer_metrics(tracer, command_durations(cli_loop))
    dims = getattr(traced_wl, "affine_dims", None) or census["facets"][0].affine_dims
    metrics["hull.affine_dim"] = max(dims.values())
    metrics["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
    metrics["trace.coverage"] = tracer.top_level_ns("loop") / 1e9 / sum(traced.durations)

    loops = [warm, plain, traced] + [loop for _, loop in census.values()]
    return {
        "metrics": metrics,
        "attempted": sum(len(loop.ok) for loop in loops),
        "failed": sum(len(loop.ok) - sum(loop.ok) for loop in loops),
        "ops": {"untraced": len(plain.durations), "traced": len(traced.durations)},
        "errors": [e for loop in loops for e in loop.errors][:5],
    }


def pause() -> None:
    """Let the parent sample the reference and set-up time while this
    process is idle."""
    print("pause", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("expected go from the parent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, Path(args.workdir))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if sys.stdin.readline().strip() != "go":
        return 1

    if args.mode == "trace":
        out = trace_run(cls, wl, args)
    else:
        warm = Loop.once(wl, wl.warmup())
        loop = Loop.timed(wl, args.seconds, between_ops=pause, min_ops=MIN_OPS)
        out = loop.summary()
        out["warmup"] = {"ops": len(warm.ok), "failed": len(warm.ok) - sum(warm.ok)}
        out["errors"] = (warm.errors + out["errors"])[:5]
        out["peak_rss_mb"] = peak_rss_mb(children=cls is workloads.Cli)
        out["cycle"] = cls.cycle
        if cls is workloads.Certify:
            out["verdicts"] = workloads.Certify.expected_verdicts(loop.items)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
