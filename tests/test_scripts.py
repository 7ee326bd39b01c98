"""Smoke tests of the measuring scripts under scripts/."""

import dataclasses
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from conftest import load_compare_results

import planarclust as pc
from planarclust import decode

REPO = Path(__file__).resolve().parents[1]


def test_bound_ladder_counts_searches_and_matchings():
    # the script wraps cut_oracle.dijkstra, cut_oracle._match_terminals,
    # cut_oracle._search_and_match and bound.solve_lp by name: after a
    # rename it would print zero counts without an error
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bound_ladder.py"), str(REPO), "--sizes", "20"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    header, row = out.stdout.splitlines()
    fields = dict(zip(header.split(), row.split()))
    assert fields["grid"] == "20x20"
    assert int(fields["batches"]) > 0
    assert int(fields["sources"]) > 0 and int(fields["matchings"]) > 0
    # every oracle call searches from each of its terminals at least once;
    # repairs search some again
    assert 0 < int(fields["terminals"]) <= int(fields["sources"])
    assert float(fields["matching_s"]) > 0
    # one LP solve per batch: the seed LP is solved in closed form
    assert int(fields["lp_solves"]) == int(fields["batches"])
    assert float(fields["lp_s"]) > 0


def test_compare_matching_cost_checks_the_enumeration():
    # planar-desk's small calls are matched by the subset DP: the script
    # must price them against match_dense, not only compare the two solvers
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_matching_cost.py"), str(REPO), str(REPO),
         "--workloads", "planar-desk", "--instances", "20"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = {tuple(line.split()[:3]): line for line in out.stdout.splitlines()}
    recorded = lines["planar-desk", "int64", "recorded"]
    fields = recorded.split(", ")
    assert len(fields) == 3 and fields[2].endswith(" small-path equal")
    equal, small_path = fields[2].split()[0].split("/")
    assert int(small_path) > 0 and equal == small_path


def test_compare_results_hashes_the_instance_ahead_of_its_results():
    # a changed instance shows as such, not only through changed results
    cr = load_compare_results()
    base = pc.gen_random_planar(8, 11)
    theta = base.theta.copy()
    theta[3] = np.nextafter(theta[3], np.inf)
    changed = dataclasses.replace(base, theta=theta)
    W = SimpleNamespace(make_instance=lambda inst: inst, TOL=1e-6, RESTARTS=1)
    wl = SimpleNamespace(bound_in_setup=True)  # the recursive decode only
    first, again, other = (cr._instance_record(pc, decode, W, wl, inst, 0, 1000, 1.0)
                           for inst in (base, base, changed))
    assert first == again and "error" not in first
    assert first["instance"] == cr.instance_digest(base) != other["instance"]
    assert first["digest"] != other["digest"]
    # the memory order of a graph array counts too
    c_order = dataclasses.replace(base.graph, endpoints=np.ascontiguousarray(base.graph.endpoints))
    assert np.array_equal(c_order.endpoints, base.graph.endpoints)
    assert cr.instance_digest(dataclasses.replace(base, graph=c_order)) != first["instance"]
