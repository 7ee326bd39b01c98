"""Time the bound loop of one checkout on a ladder of GPB grids.

    python scripts/bound_ladder.py CHECKOUT [--sizes 50 70 100]

For each size n, a fresh process imports CHECKOUT's `src/` and runs
`optimize_lower_bound` on `gen_grid(n, n, GpbLikeWeights(0.27), seed=0)`
with BLAS and OpenMP pinned to one thread.  Wrappers around
`cut_oracle.dijkstra` and `cut_oracle._match_terminals` time the
Dijkstra searches and the matchings and count the search sources
(terminal rows; the oracle's multi-source nearest-terminal runs are
timed but not counted) and the matchings; one around
`cut_oracle._search_and_match` sums the terminals of the oracle calls,
so `sources - terminals` is the number of rows searched again by
repairs.  One line per size gives the bound loop's CPU time, the bound,
the batch count, Dijkstra CPU time, the sources searched, the
terminals, CPU time and count of the matchings, and the process's peak
RSS (`ru_maxrss`).  Sizes run
one after another, so the RSS of one does not inflate another.  A
100x100 grid takes about a minute on a 2-core x86-64 host; run the two
checkouts of a comparison in one session, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def worker(checkout: str, n: int) -> None:
    """Print one JSON line with the measurements of size n."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [f"{checkout}/src"]
    import resource
    import time

    import planarclust as pc
    from planarclust import cut_oracle

    stats = {"dijkstra_s": 0.0, "sources": 0, "terminals": 0, "matching_s": 0.0, "matchings": 0}
    dijkstra, match = cut_oracle.dijkstra, cut_oracle._match_terminals
    search_and_match = cut_oracle._search_and_match

    def timed_dijkstra(*args, **kwargs):
        t = time.process_time()
        out = dijkstra(*args, **kwargs)
        stats["dijkstra_s"] += time.process_time() - t
        if not kwargs.get("min_only"):
            stats["sources"] += len(kwargs["indices"])
        return out

    def timed_match(*args, **kwargs):
        t = time.process_time()
        out = match(*args, **kwargs)
        stats["matching_s"] += time.process_time() - t
        stats["matchings"] += 1
        return out

    def counted_search_and_match(info, gmin, terminals):
        stats["terminals"] += terminals.size
        return search_and_match(info, gmin, terminals)

    cut_oracle.dijkstra, cut_oracle._match_terminals = timed_dijkstra, timed_match
    cut_oracle._search_and_match = counted_search_and_match
    inst = pc.gen_grid(n, n, pc.GpbLikeWeights(0.27), seed=0)
    t = time.process_time()
    res = pc.optimize_lower_bound(inst.graph, inst.theta)
    cpu = time.process_time() - t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"n": n, "cpu_s": cpu, "bound": res.bound, "batches": res.batches,
                      "peak_rss_mb": rss_mb, **stats}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?")
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 70, 100])
    ap.add_argument("--worker", type=int, metavar="N", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.checkout:
        ap.error("give the CHECKOUT")
    if args.worker:
        worker(args.checkout, args.worker)
        return 0
    env = {**os.environ, **{v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                             "MKL_NUM_THREADS")}}
    print(f"{'grid':>9} {'cpu_s':>7} {'bound':>14} {'batches':>7} {'dijkstra_s':>10} "
          f"{'sources':>8} {'terminals':>9} {'matching_s':>10} {'matchings':>9} {'peak_rss_mb':>11}")
    for n in args.sizes:
        out = subprocess.run([sys.executable, __file__, args.checkout, "--worker", str(n)],
                             env=env, capture_output=True, text=True)
        if out.returncode:
            print(out.stderr, file=sys.stderr)
            return 2
        r = json.loads(out.stdout.splitlines()[-1])
        print(f"{f'{n}x{n}':>9} {r['cpu_s']:7.2f} {r['bound']:14.10g} {r['batches']:7d} "
              f"{r['dijkstra_s']:10.4f} {r['sources']:8d} {r['terminals']:9d} {r['matching_s']:10.4f} "
              f"{r['matchings']:9d} {r['peak_rss_mb']:11.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
