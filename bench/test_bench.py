"""Tests of the benchmark's input generators, answer checks and statistics."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from causal_transfer import experiments, polytope

DEFAULT_SEED = 0


@pytest.fixture(scope="module")
def certify_wl():
    return workloads.Certify(DEFAULT_SEED)


def test_certify_default_seed_agrees_with_float_lp(certify_wl):
    """The pinned verdicts match an independent float LP on the first cycle,
    and the mix holds both verdicts."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    weak = []
    for item in certify_wl.items[: certify_wl.cycle]:
        problem = polytope.restrict_to_local(
            polytope.build_consistency_problem(item.table), experiments.bell_partition()
        )
        rows, rhs = problem.equation_rows()
        result = linprog(
            c=[0.0] * len(rows[0]),
            A_eq=[[float(x) for x in row] for row in rows],
            b_eq=[float(b) for b in rhs],
            bounds=(0, None),
            method="highs",
        )
        assert result.status in (0, 2)  # solved, or proven infeasible
        weak.append(result.status == 2)
        assert weak[-1] == (item.visibility >= workloads.WEAK_SIGNAL_FROM)
    assert Counter(weak) == {True: 4, False: 7}


def test_certify_verdict_fingerprint_is_pinned(certify_wl):
    assert workloads.Certify.expected_verdicts(certify_wl.items[:22]) == (
        "WWLLLLWLLWL" "LWLLWLWWLLL"
    )


def test_certify_cycles_hold_every_visibility_once(certify_wl):
    items = certify_wl.items
    for start in range(0, len(items), certify_wl.cycle):
        cycle = items[start : start + certify_wl.cycle]
        assert sorted(it.visibility for it in cycle) == list(workloads.VISIBILITIES)
    pairs = Counter((it.perm_a, it.perm_b) for it in items[:36])
    assert len(pairs) == 36
    other = workloads.Certify(DEFAULT_SEED + 1)
    assert [it.visibility for it in other.items] != [it.visibility for it in items]


def test_certify_check_accepts_exact_answers_and_rejects_wrong_ones(certify_wl):
    wl = certify_wl
    infeasible = next(it for it in wl.items if it.visibility == 1)
    feasible = next(it for it in wl.items if it.visibility == Fraction(1, 2))
    for item in (infeasible, feasible):
        weak_signal, verified = wl.run(item)
        assert wl.check(item, (weak_signal, verified))
        assert not wl.check(item, (not weak_signal, verified))
        assert not wl.check(item, (weak_signal, False))


def test_facets_check_accepts_known_answer_and_rejects_tampered():
    census = workloads.Facets.census()
    (item,) = census.items
    result = census.run(item)

    dropped = workloads.Facets.census()
    assert not dropped.check(item, result[:-1])
    doubled = workloads.Facets.census()
    assert not doubled.check(item, result[:-1] + result[:1])
    loosened = workloads.Facets.census()
    shifted = [replace(result[0], bound=result[0].bound - 1)] + result[1:]
    assert not loosened.check(item, shifted)  # no longer tight on a facet
    broken = workloads.Facets.census()
    violated = [replace(result[0], bound=result[0].bound + 1)] + result[1:]
    assert not broken.check(item, violated)

    assert census.check(item, result)
    assert census.affine_dims == {((2, 2), False): 8}


def test_facets_cycle_mix_is_fixed():
    wl = workloads.Facets(DEFAULT_SEED)
    for start in range(0, len(wl.items), wl.cycle):
        cycle = wl.items[start : start + wl.cycle]
        assert sorted((it.settings, it.swapped) for it in cycle) == sorted(workloads.FACET_CYCLE)


def test_cli_check_compares_with_in_process_answers(tmp_path):
    wl = workloads.Cli(DEFAULT_SEED, tmp_path)
    for start in range(0, len(wl.items), wl.cycle):
        kinds = [it.kind for it in wl.items[start : start + wl.cycle]]
        assert sorted(kinds) == sorted(workloads.CLI_KINDS)
    for kind in ("double-bell-forbidden", "enumerate"):
        item = next(it for it in wl.items if it.kind == kind)
        code, stdout = wl.run(item)
        assert wl.check(item, (code, stdout))
        assert not wl.check(item, (1 - code if code < 2 else 0, stdout))
        doc = json.loads(stdout)
        key = "verdict" if "verdict" in doc else "count"
        doc[key] = "allowed" if key == "verdict" else doc[key] + 1
        assert not wl.check(item, (code, json.dumps(doc)))


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    durations = [float(k) for k in range(1, 56)]
    percentile, value = run.tail(durations)
    assert percentile == 81
    assert sum(d > value for d in durations) >= 10
    assert value == 45.0
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_reference_computation_runs():
    assert 0 < run.reference() < 10


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
