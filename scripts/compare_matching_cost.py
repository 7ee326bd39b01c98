"""Compare the matching cost of two checkouts on recorded oracle inputs.

    python scripts/compare_matching_cost.py OLD_CHECKOUT NEW_CHECKOUT [--seed 0]
        [--workloads NAME ...] [--instances N]

Runs one round of every benchmark workload (perfbench/workloads.py), or of
the named ones and their first N instances, with OLD_CHECKOUT's library
and records each terminal distance matrix passed to
`cut_oracle._match_terminals`, with its mask of the pairs the oracle's
search found (all pairs for a library whose `_match_terminals` takes the
matrix alone).  Then both checkouts' `match_dense` solve every recorded
matrix under its mask, in its recorded dtype and, for int64 inputs, once
more cast to float64.  NEW_CHECKOUT's cut oracle matches up to its
`TABLE_T` terminals on its unlimited small path (fewer than `SMALL_T`)
by enumeration, not by `match_dense`, so its `_match_terminals` also
solves every recorded input of that size.  A cost is the number of
matched pairs outside the mask, then the summed distance of the others.
Prints, per workload and mode, how many inputs give equal costs and how
many give identical mate arrays, and how many of the enumerated inputs
cost the same as under OLD_CHECKOUT's `match_dense`, so a refactor of
the solver can show that it is bit-identical; int64 costs must be equal
exactly, float64 costs may differ by summation rounding when two solvers
pick different tied matchings.  Exits 1 if any int64 cost differs.
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
        out = mod.match_dense(d, mask)
        # later versions also return the vertex potentials
        return out[0] if isinstance(out, tuple) else out

    return mate


def load_enumeration(library):
    """The library's cut-oracle matching, as a mate array, for inputs its
    small path matches by enumeration, and None for other inputs."""
    oracle = library.cut_oracle
    largest = min(getattr(oracle, "TABLE_T", 0), oracle.SMALL_T - 1)

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

    def hook(dist, *args, **kwargs):
        # older libraries pass the matrix alone and match over all pairs;
        # newer ones also pass the call's warm start, which is passed on
        mask = args[0] if args else kwargs.get("mask", ~np.eye(len(dist), dtype=bool))
        recorded.append((name, np.array(dist), np.array(mask)))
        return match(dist, *args, **kwargs)

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


def difference(a, b) -> float:
    """Relative difference of two costs; inf if they leave the mask
    unequally often."""
    if a[0] != b[0]:
        return np.inf
    return abs(a[1] - b[1]) / max(1.0, abs(a[1]))


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
    new, enumerate_ = load_match_dense(new_library), load_enumeration(new_library)
    inputs = record_inputs(args.old, args.seed, args.workloads, args.instances)
    total, equal, same = collections.Counter(), collections.Counter(), collections.Counter()
    enumerated, enum_equal = collections.Counter(), collections.Counter()
    worst = 0.0
    for workload, d, mask in inputs:
        for x in [d] if d.dtype != np.int64 else [d, d.astype(np.float64)]:
            key = (workload, "int64" if x.dtype == np.int64 else "float64",
                   "cast" if x is not d else "recorded")
            mate_a, mate_b = old(x, mask), new(x, mask)
            a, b = cost(x, mask, mate_a), cost(x, mask, mate_b)
            total[key] += 1
            same[key] += np.array_equal(mate_a, mate_b)
            equal[key] += a == b
            worst = max(worst, difference(a, b))
            mate_e = enumerate_(x, mask)
            if mate_e is not None:
                e = cost(x, mask, mate_e)
                enumerated[key] += 1
                enum_equal[key] += a == e
                worst = max(worst, difference(a, e))
    for key in sorted(total):
        print(*key, f"{equal[key]}/{total[key]} equal costs, {same[key]}/{total[key]} identical mates, "
                    f"{enum_equal[key]}/{enumerated[key]} enumerated equal")
    print(f"largest relative float64 difference: {worst:.3g}")
    int_diff = sum(total[k] - equal[k] + enumerated[k] - enum_equal[k] for k in total if k[1] == "int64")
    return 1 if int_diff else 0


if __name__ == "__main__":
    sys.exit(main())
