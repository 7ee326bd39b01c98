"""Compare the matching cost of two checkouts on recorded oracle inputs.

    python scripts/compare_matching_cost.py OLD_CHECKOUT NEW_CHECKOUT [--seed 0]

Runs one round of every benchmark workload (perfbench/workloads.py) with
OLD_CHECKOUT's library and records each metric-closure matrix passed to
`cut_oracle._match_terminals`.  Then both checkouts' `match_dense` solve
every recorded matrix, in its recorded dtype and, for int64 inputs, once
more cast to float64.  Prints, per workload and mode, how many inputs give
equal costs; int64 costs must be equal exactly, float64 costs may differ by
summation rounding when the two solvers pick different tied matchings.
Exits 1 if any int64 cost differs.
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import sys

import numpy as np


def load_match_dense(checkout: str, name: str):
    spec = importlib.util.spec_from_file_location(name, f"{checkout}/src/planarclust/matching.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod.match_dense


def record_inputs(checkout: str, seed: int) -> list[tuple[str, np.ndarray]]:
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perfbench"]
    import planarclust as pc
    import workloads as W
    from planarclust import cut_oracle, decode

    recorded = []
    name = ""
    match = cut_oracle._match_terminals

    def hook(dist):
        recorded.append((name, np.array(dist)))
        return match(dist)

    cut_oracle._match_terminals = hook
    for name, wl in W.WORKLOADS.items():
        for spec in W.instance_specs(wl, seed):
            inst = W.make_instance(spec)
            br = pc.optimize_lower_bound(inst.graph, inst.theta, tol=W.TOL)
            if wl.bound_in_setup:
                decode.decode_recursive(inst.graph, inst.theta, br.lam, seed=seed, restart=0,
                                        bound=br.bound)
            else:
                pc.best_decode(inst.graph, inst.theta, br, restarts=W.RESTARTS, seed=seed)
    cut_oracle._match_terminals = match
    return recorded


def cost(match_dense, d: np.ndarray):
    t = d.shape[0]
    mate = match_dense(d, ~np.eye(t, dtype=bool))
    v = np.flatnonzero(np.arange(t) < mate)
    return d[v, mate[v]].sum()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    old = load_match_dense(args.old, "matching_old")
    new = load_match_dense(args.new, "matching_new")
    inputs = record_inputs(args.old, args.seed)
    total, equal = collections.Counter(), collections.Counter()
    worst = 0.0
    for workload, d in inputs:
        for x in [d] if d.dtype != np.int64 else [d, d.astype(np.float64)]:
            key = (workload, "int64" if x.dtype == np.int64 else "float64",
                   "cast" if x is not d else "recorded")
            a, b = cost(old, x), cost(new, x)
            total[key] += 1
            if a == b:
                equal[key] += 1
            else:
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    for key in sorted(total):
        print(*key, f"{equal[key]}/{total[key]} equal")
    print(f"largest relative float64 difference: {worst:.3g}")
    int_diff = sum(total[k] - equal[k] for k in total if k[1] == "int64")
    return 1 if int_diff else 0


if __name__ == "__main__":
    sys.exit(main())
