"""Compare the matching cost of two checkouts on recorded oracle inputs.

    python scripts/compare_matching_cost.py OLD_CHECKOUT NEW_CHECKOUT [--seed 0]
        [--workloads NAME ...] [--instances N]

Runs one round of every benchmark workload (perfbench/workloads.py), or of
the named ones and their first N instances, with OLD_CHECKOUT's library
and records each terminal distance matrix passed to
`cut_oracle._match_terminals`, with its mask of the pairs the oracle's
search found (every pair where it passes no mask).  Then both
checkouts' `match_dense` solve every recorded int64 matrix under its
mask.  NEW_CHECKOUT's cut oracle matches
fewer than its `SMALL_T` terminals on its unlimited small path by a
subset DP, not by `match_dense`, so its `_match_terminals` also solves
every recorded input of those sizes.  A cost is the number of matched
pairs outside the mask, then the summed distance of the others.  Prints,
per workload, how many inputs give equal costs and how many give
identical mate arrays, and how many of the small path's inputs cost the
same as under OLD_CHECKOUT's `match_dense`, so a refactor of the solver
can show that it is bit-identical.  Exits 1 if any cost differs.
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import sys

import numpy as np


def load_library(checkout: str, name: str):
    """The checkout's `planarclust` package, imported as `name`."""
    root = f"{checkout}/src/planarclust"
    spec = importlib.util.spec_from_file_location(
        name, f"{root}/__init__.py", submodule_search_locations=[root]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def load_match_dense(library):
    """The library's `match_dense`, returning the mate array alone."""
    mod = library.matching

    def mate(d, mask):
        return mod.match_dense(d, mask)[0]

    return mate


def load_small_path(library):
    """The library's cut-oracle matching, as a mate array, for inputs its
    small path matches without `match_dense` (by the subset DP), and None
    for other inputs."""
    oracle = library.cut_oracle
    largest = oracle.SMALL_T - 1

    def mate(d, mask):
        if len(d) > largest or not mask.all():
            return None
        out = np.empty(len(d), dtype=np.int64)
        for i, j in oracle._match_terminals(d, mask)[0]:
            out[i], out[j] = j, i
        return out

    return mate


def record_inputs(checkout: str, seed: int, workloads, instances) -> list[tuple[str, np.ndarray, np.ndarray]]:
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perfbench"]
    import planarclust as pc
    import workloads as W
    from planarclust import cut_oracle, decode

    recorded = []
    name = ""
    match = cut_oracle._match_terminals

    def hook(dist, mask):
        found = np.ones(np.shape(dist), dtype=bool) if mask is None else np.array(mask)
        recorded.append((name, np.array(dist), found))
        return match(dist, mask)

    cut_oracle._match_terminals = hook
    for name in workloads or W.WORKLOADS:
        wl = W.WORKLOADS[name]
        for spec in W.instance_specs(wl, seed)[:instances]:
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
    ap.add_argument("--workloads", nargs="+", metavar="NAME", help="default: every workload")
    ap.add_argument("--instances", type=int, metavar="N", help="the first N of each workload")
    args = ap.parse_args()
    new_library = load_library(args.new, "planarclust_new")
    old = load_match_dense(load_library(args.old, "planarclust_old"))
    new, small_path = load_match_dense(new_library), load_small_path(new_library)
    inputs = record_inputs(args.old, args.seed, args.workloads, args.instances)
    total, equal, same = collections.Counter(), collections.Counter(), collections.Counter()
    small, small_equal = collections.Counter(), collections.Counter()
    for workload, d, mask in inputs:
        mate_a, mate_b = old(d, mask), new(d, mask)
        a, b = cost(d, mask, mate_a), cost(d, mask, mate_b)
        total[workload] += 1
        same[workload] += np.array_equal(mate_a, mate_b)
        equal[workload] += a == b
        mate_s = small_path(d, mask)
        if mate_s is not None:
            small[workload] += 1
            small_equal[workload] += a == cost(d, mask, mate_s)
    for key in sorted(total):
        print(key, "int64 recorded", f"{equal[key]}/{total[key]} equal costs, "
              f"{same[key]}/{total[key]} identical mates, "
              f"{small_equal[key]}/{small[key]} small-path equal")
    differ = sum(total[k] - equal[k] + small[k] - small_equal[k] for k in total)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
