"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; everything here is also asserted, so a plain pytest run fails if
any criterion fails.
"""

import itertools
import statistics
import time

import numpy as np
import pytest

from planarclust.bound import optimize_lower_bound
from planarclust.cli import main as cli_main
from planarclust.cut_oracle import min_cut_2color
from planarclust.decode import best_decode
from planarclust.instances import (
    GpbLikeWeights,
    UniformWeights,
    gen_grid,
    gen_random_planar,
    write_instance,
)
from planarclust.oracle import brute_cc, brute_cc2, check_coloring_chain, exact_cc_value, full_lp_bound

from conftest import brute_force_min_perfect
from gadget import MatchingProblem, NoPerfectMatching, min_weight_perfect_matching


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_desk_instances():
    """The 500 shared random planar instances (4 <= V <= 10)."""
    out = []
    for i in range(500):
        n = 4 + i % 7
        out.append(gen_random_planar(n, 50_000 + i))
    return out


def desk_grid_instances():
    """100 grid instances with sizes up to 6x6."""
    sizes = [(w, h) for w in range(2, 7) for h in range(2, 7)]
    out = []
    for i in range(100):
        w, h = sizes[i % len(sizes)]
        out.append(gen_grid(w, h, UniformWeights(), 60_000 + i))
    return out


@pytest.fixture(scope="module")
def desk_random():
    return random_desk_instances()


@pytest.fixture(scope="module")
def desk_solved(desk_random):
    """Bound + decode + exact optimum for the 600 shared instances."""
    records = []
    for i, inst in enumerate(desk_random + desk_grid_instances()):
        br = optimize_lower_bound(inst.graph, inst.theta)
        res = best_decode(inst.graph, inst.theta, br, restarts=10, seed=i)
        if inst.graph.vertex_count <= 8:
            _, cc = brute_cc(inst.graph, inst.theta)
        else:
            # set-partition enumeration is infeasible beyond V=12 (the 6x6
            # grids have V=36); the frontier DP is exact and is itself
            # tested against brute_cc
            cc = exact_cc_value(inst.graph, inst.theta)
        records.append((inst, br, res, cc))
    return records


def test_criterion_1_oracle_equivalence(desk_random):
    t0 = time.perf_counter()
    mismatches = 0
    for inst in desk_random:
        _, val = min_cut_2color(inst.graph, inst.theta)
        _, ref = brute_cc2(inst.graph, inst.theta)
        if round(val * 10**5) != round(ref * 10**5):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(
        1,
        ok,
        f"2-coloring oracle == brute force on {len(desk_random)} instances, "
        f"exact in scaled integers, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_bound_sandwich(desk_solved):
    violations = 0
    for inst, br, res, cc in desk_solved:
        if not (br.bound <= cc + 1e-6 and cc <= res.energy + 1e-6):
            violations += 1
    report(
        2,
        violations == 0,
        f"bound <= exact optimum <= decoded energy on {len(desk_solved)} "
        f"instances, {violations} violations",
    )


def test_criterion_3_tightness_rate(desk_solved):
    certs = sum(1 for _, _, res, _ in desk_solved if res.certificate)
    rate = certs / len(desk_solved)
    report(
        3,
        rate >= 0.95,
        f"certificates on {certs}/{len(desk_solved)} instances "
        f"(rate {100 * rate:.2f}%, required >= 95%)",
    )


def test_criterion_4_two_vs_four_coloring():
    failures = 0
    for i in range(200):
        inst = gen_random_planar(4 + i % 5, 70_000 + i)
        r = check_coloring_chain(inst.graph, inst.theta)
        if not r.ok:
            failures += 1
    report(4, failures == 0, f"coloring-chain checks on 200 instances, {failures} failures")


def test_criterion_5_upper_bounds_do_not_loosen():
    worst = 0.0
    for i in range(50):
        inst = gen_random_planar(4 + i % 4, 80_000 + i)
        a = full_lp_bound(inst.graph, inst.theta, True)
        b = full_lp_bound(inst.graph, inst.theta, False)
        worst = max(worst, abs(a - b))
    report(
        5,
        worst <= 1e-9,
        f"full LP with/without lambda upper bounds agrees on 50 instances "
        f"(max |diff| {worst:.2e} <= 1e-9)",
    )


def test_criterion_6_cutting_plane_solves_full_lp():
    worst = 0.0
    for i in range(50):
        inst = gen_random_planar(4 + i % 5, 90_000 + i)
        res = optimize_lower_bound(inst.graph, inst.theta, tol=1e-9)
        ref = full_lp_bound(inst.graph, inst.theta, True)
        worst = max(worst, abs(res.bound - ref))
    report(
        6,
        worst <= 1e-8,
        f"cutting-plane bound == full-constraint LP on 50 instances "
        f"(max |diff| {worst:.2e} <= 1e-8)",
    )


def test_criterion_7_matching_exactness():
    rng = np.random.default_rng(31337)
    mismatches = 0
    checked = 0
    for _ in range(300):
        n = 2 * int(rng.integers(2, 7))
        density = float(rng.uniform(0.3, 1.0))
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < density:
                w = round(float(rng.uniform(-1, 1)), 5)
                edges.append((u, v, w))
        problem = MatchingProblem(n, tuple(edges))
        ref = brute_force_min_perfect(n, edges)
        try:
            got = min_weight_perfect_matching(problem).total_weight
        except NoPerfectMatching:
            got = None
        if ref is None:
            if got is not None:
                mismatches += 1
        else:
            checked += 1
            if got is None or round(got * 10**5) != round(ref[0] * 10**5):
                mismatches += 1
    report(
        7,
        mismatches == 0 and checked >= 200,
        f"blossom == brute-force perfect matching on 300 graphs "
        f"({checked} feasible), {mismatches} mismatches",
    )


def test_criterion_8_grid_batch_counts():
    medians = {}
    worst = 0
    failures = 0
    for beta in (0.35, 0.27, 0.20, 0.12):
        batches = []
        for seed in range(20):
            inst = gen_grid(20, 20, GpbLikeWeights(beta), 100_000 + seed)
            br = optimize_lower_bound(inst.graph, inst.theta)
            if not br.converged or br.batches > 50:
                failures += 1
            batches.append(br.batches)
            worst = max(worst, br.batches)
        medians[beta] = statistics.median(batches)
    report(
        8,
        failures == 0,
        f"20x20 grids converged with batches <= 50 for all 80 instances "
        f"(max {worst}; medians per beta {medians})",
    )


def test_criterion_9_desk_scale_performance(tmp_path, capsys):
    inst = gen_grid(50, 50, GpbLikeWeights(0.27), 0)
    path = tmp_path / "grid50.json"
    write_instance(inst, path)
    t0 = time.perf_counter()
    code = cli_main(["solve", str(path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    import json

    doc = json.loads(out)
    ok = elapsed < 60.0 and code in (0, 2) and doc["gap"] >= -1e-6
    with capsys.disabled():
        report(
            9,
            ok,
            f"full solve of a 50x50 grid in {elapsed:.1f}s (< 60s), "
            f"bound {doc['bound']:.3f}, energy {doc['energy']:.3f}, "
            f"certificate {doc['certificate']}",
        )


def test_criterion_10_out_of_scope_documented():
    report(
        10,
        True,
        "external-benchmark evaluations (boundary detection datasets, "
        "third-party solver baselines) are excluded by design; criteria 1-8 "
        "stand in for them",
    )
