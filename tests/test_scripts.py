"""Smoke tests of the measuring scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_bound_ladder_counts_searches_and_matchings():
    # the script wraps cut_oracle.dijkstra and cut_oracle._match_terminals by
    # name: after a rename it would print zero counts without an error
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bound_ladder.py"), str(REPO), "--sizes", "20"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    header, row = out.stdout.splitlines()
    fields = dict(zip(header.split(), row.split()))
    assert fields["grid"] == "20x20"
    assert int(fields["batches"]) > 0
    assert int(fields["sources"]) > 0 and int(fields["matchings"]) > 0
    assert float(fields["matching_s"]) > 0


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
