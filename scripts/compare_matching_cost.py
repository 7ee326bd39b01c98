"""Compare the matching cost of two checkouts on recorded oracle inputs.

    python scripts/compare_matching_cost.py OLD_CHECKOUT NEW_CHECKOUT [--seed 0]

Runs one round of every benchmark workload (perfbench/workloads.py) with
OLD_CHECKOUT's library and records each terminal distance matrix passed to
`cut_oracle._match_terminals`, with its mask of the pairs the oracle's
search found (all pairs for a library whose `_match_terminals` takes the
matrix alone).  Then both checkouts' `match_dense` solve every recorded
matrix under its mask, in its recorded dtype and, for int64 inputs, once
more cast to float64.  A cost is the number of matched pairs outside the
mask, then the summed distance of the others.  Prints, per workload and
mode, how many inputs give equal costs and how many give identical mate
arrays, so a refactor of the solver can show that it is bit-identical;
int64 costs must be equal exactly, float64 costs may differ by summation
rounding when the two solvers pick different tied matchings.  Exits 1 if
any int64 cost differs.
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import sys

import numpy as np


def load_match_dense(checkout: str, name: str):
    """The checkout's `match_dense`, returning the mate array alone."""
    spec = importlib.util.spec_from_file_location(name, f"{checkout}/src/planarclust/matching.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)

    def mate(d, mask):
        out = mod.match_dense(d, mask)
        # later versions also return the vertex potentials
        return out[0] if isinstance(out, tuple) else out

    return mate


def record_inputs(checkout: str, seed: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perfbench"]
    import planarclust as pc
    import workloads as W
    from planarclust import cut_oracle, decode

    recorded = []
    name = ""
    match = cut_oracle._match_terminals

    def hook(dist, *args, **kwargs):
        # older libraries pass the matrix alone and match over all pairs;
        # newer ones also pass the call's warm start, which is passed on
        mask = args[0] if args else kwargs.get("mask", ~np.eye(len(dist), dtype=bool))
        recorded.append((name, np.array(dist), np.array(mask)))
        return match(dist, *args, **kwargs)

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


def cost(d: np.ndarray, mask: np.ndarray, mate: np.ndarray):
    v = np.flatnonzero(np.arange(d.shape[0]) < mate)
    found = mask[v, mate[v]]
    return int((~found).sum()), d[v[found], mate[v[found]]].sum()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    old = load_match_dense(args.old, "matching_old")
    new = load_match_dense(args.new, "matching_new")
    inputs = record_inputs(args.old, args.seed)
    total, equal, same = collections.Counter(), collections.Counter(), collections.Counter()
    worst = 0.0
    for workload, d, mask in inputs:
        for x in [d] if d.dtype != np.int64 else [d, d.astype(np.float64)]:
            key = (workload, "int64" if x.dtype == np.int64 else "float64",
                   "cast" if x is not d else "recorded")
            mate_a, mate_b = old(x, mask), new(x, mask)
            a, b = cost(x, mask, mate_a), cost(x, mask, mate_b)
            total[key] += 1
            same[key] += np.array_equal(mate_a, mate_b)
            if a == b:
                equal[key] += 1
            elif a[0] == b[0]:
                worst = max(worst, abs(a[1] - b[1]) / max(1.0, abs(a[1])))
            else:
                worst = np.inf
    for key in sorted(total):
        print(*key, f"{equal[key]}/{total[key]} equal costs, {same[key]}/{total[key]} identical mates")
    print(f"largest relative float64 difference: {worst:.3g}")
    int_diff = sum(total[k] - equal[k] for k in total if k[1] == "int64")
    return 1 if int_diff else 0


if __name__ == "__main__":
    sys.exit(main())
