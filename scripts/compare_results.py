"""Check that two checkouts compute bit-identical results.

    python scripts/compare_results.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's library runs in its own process, importing that
checkout's `src/` and `perfbench/`, on one fixed instance set built from
the benchmark workloads (perfbench/workloads.py):

* `planar-desk` seed 0, full bound loop;
* `grid-gpb` seed 0, full bound loop;
* `planar-desk` seed 2 with `max_batches=1`, so most runs are cut short;
* `decode-recursive` seed 0, bound plus one recursive pass, as benchmarked.

Per instance it hashes (SHA-256) the bound, lambda, batch and oracle-call
counts, the convergence flag and the cut pool, then the result (labels,
energy, certificate, method) of `best_decode` with one restart, of
`decode_rounding` solving its LP afresh, and of one `decode_recursive`
pass.  The recursive pass is left out on `grid-gpb`, where it takes about
2 s per instance; `decode-recursive` covers that path on smaller grids.
An instance that raises hashes its exception instead.

Prints one digest per instance set and checkout, and exits 1 at the first
instance whose digest differs.  Both processes run at once, so the
comparison takes about as long as one checkout's run: about a minute on a
2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile

# (label, workload, seed, max_batches, recursive pass)
SETS = (
    ("planar-desk/s0", "planar-desk", 0, 1000, True),
    ("grid-gpb/s0", "grid-gpb", 0, 1000, False),
    ("planar-desk/s2/max_batches=1", "planar-desk", 2, 1, True),
    ("decode-recursive/s0", "decode-recursive", 0, 1000, True),
)


def _hash_decode(h, res) -> None:
    h.update(res.partition.astype("int64").tobytes())
    h.update(f"{res.energy!r} {res.certificate} {res.method};".encode())


def _instance_digest(pc, decode, W, wl, spec, seed, max_batches, recursive) -> str:
    h = hashlib.sha256()
    try:
        inst = W.make_instance(spec)
        g, theta = inst.graph, inst.theta
        br = pc.optimize_lower_bound(g, theta, tol=W.TOL, max_batches=max_batches)
        h.update(f"{br.bound!r} {br.batches} {br.oracle_calls} {br.converged};".encode())
        h.update(br.lam.tobytes())
        h.update(br.pool.matrix(g.edge_count).tobytes())
        if not wl.bound_in_setup:
            _hash_decode(h, pc.best_decode(g, theta, br, restarts=W.RESTARTS, seed=seed))
            _hash_decode(h, decode.decode_rounding(g, theta, br.pool, bound=br.bound))
        if recursive:
            _hash_decode(h, decode.decode_recursive(g, theta, br.lam, seed=seed, bound=br.bound))
    except Exception as exc:  # both checkouts must fail alike
        h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def worker(checkout: str) -> None:
    """Print one JSON line per instance set: its label and per-instance digests."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perfbench"]
    import planarclust as pc
    import workloads as W
    from planarclust import decode

    for label, name, seed, max_batches, recursive in SETS:
        wl = W.WORKLOADS[name]
        digests = [
            _instance_digest(pc, decode, W, wl, spec, seed, max_batches, recursive)
            for spec in W.instance_specs(wl, seed)
        ]
        print(json.dumps({"set": label, "digests": digests}), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.old and args.new):
        ap.error("give the OLD and NEW checkouts")
    # files, not pipes: a full pipe would stall one worker until the other ends
    with tempfile.TemporaryFile("w+") as out_old, tempfile.TemporaryFile("w+") as out_new:
        outs = (out_old, out_new)
        procs = [
            subprocess.Popen([sys.executable, __file__, "--worker", checkout], stdout=out)
            for checkout, out in zip((args.old, args.new), outs)
        ]
        if any([p.wait() for p in procs]):
            print("a worker failed", file=sys.stderr)
            return 2
        for out in outs:
            out.seek(0)
        old, new = ([json.loads(line) for line in out] for out in outs)
    for a, b in zip(old, new):
        for side, doc in (("old", a), ("new", b)):
            total = hashlib.sha256("".join(doc["digests"]).encode()).hexdigest()
            print(f"{doc['set']:32s} {side} {len(doc['digests']):5d} instances  {total}")
        for i, (da, db) in enumerate(zip(a["digests"], b["digests"])):
            if da != db:
                print(f"DIFFERENT: {a['set']} instance {i}")
                return 1
        if len(a["digests"]) != len(b["digests"]):
            print(f"DIFFERENT: {a['set']} instance count")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
