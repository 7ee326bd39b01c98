"""Compare the results of two checkouts, instance by instance.

    python scripts/compare_results.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's library runs in its own process, importing that
checkout's `src/` and `perfbench/`, on one fixed instance set built from
the benchmark workloads (perfbench/workloads.py):

* `planar-desk` seed 0, full bound loop;
* `grid-gpb` seed 0, full bound loop;
* `planar-desk` seed 2 with `max_batches=1`, so most runs are cut short;
* `decode-recursive` seed 0, bound plus one recursive pass, as benchmarked;
* the same with every weight times pi/3, whose lambdas lie off the
  decimal grid, so the oracle solves them rounded up onto its
  power-of-two grid (`cut_oracle._prepare_weights`).

Per instance it hashes (SHA-256) the bound, lambda, batch and oracle-call
counts, the convergence flag and the cut pool, then the result (labels,
energy, certificate, method) of `best_decode` with one restart, of
`decode_rounding` solving its LP afresh, and of one `decode_recursive`
pass.  The recursive pass forces only the must-cut edges that its
partial clustering leaves uncut, so it is cheap enough to run on every
set.  An instance that raises hashes its exception instead.

Every set runs to the end.  Per set it prints each checkout's digest,
batch and oracle-call totals and number of certified results per decode,
then how many instances differ, the largest bound difference, how many
instances changed an energy but no certificate, per decode how many
energies went up and down and their sums, and one line per instance
whose certificate flips in some decode.  Exits 1 if any
instance's digest differs, so a change that is not bit-identical shows
how far its results moved.  Both
processes run at once, so the comparison takes about as long as one
checkout's run: one to two minutes on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tempfile

# (label, workload, seed, max_batches, weight factor)
SETS = (
    ("planar-desk/s0", "planar-desk", 0, 1000, 1.0),
    ("grid-gpb/s0", "grid-gpb", 0, 1000, 1.0),
    ("planar-desk/s2/max_batches=1", "planar-desk", 2, 1, 1.0),
    ("decode-recursive/s0", "decode-recursive", 0, 1000, 1.0),
    ("decode-recursive/s0 x pi/3", "decode-recursive", 0, 1000, math.pi / 3),
)


DECODES = ("best_decode", "rounding", "recursive")


def _decode_record(h, res) -> list:
    """Hash a decode result; return its [energy, certificate]."""
    h.update(res.partition.astype("int64").tobytes())
    h.update(f"{res.energy!r} {res.certificate} {res.method};".encode())
    return [res.energy, bool(res.certificate)]


def _instance_record(pc, decode, W, wl, spec, seed, max_batches, factor) -> dict:
    """Digest, bound, counts and [energy, certificate] of each decode, by name."""
    h = hashlib.sha256()
    rec = {"bound": None, "batches": 0, "oracle_calls": 0, "decodes": {}}
    try:
        inst = W.make_instance(spec)
        g, theta = inst.graph, inst.theta * factor
        br = pc.optimize_lower_bound(g, theta, tol=W.TOL, max_batches=max_batches)
        rec.update(bound=br.bound, batches=br.batches, oracle_calls=br.oracle_calls)
        h.update(f"{br.bound!r} {br.batches} {br.oracle_calls} {br.converged};".encode())
        h.update(br.lam.tobytes())
        h.update(br.pool.matrix(g.edge_count).tobytes())
        decodes = rec["decodes"]
        if not wl.bound_in_setup:
            res = pc.best_decode(g, theta, br, restarts=W.RESTARTS, seed=seed)
            decodes["best_decode"] = _decode_record(h, res)
            res = decode.decode_rounding(g, theta, br.pool, bound=br.bound)
            decodes["rounding"] = _decode_record(h, res)
        res = decode.decode_recursive(g, theta, br.lam, seed=seed, bound=br.bound)
        decodes["recursive"] = _decode_record(h, res)
    except Exception as exc:  # both checkouts must fail alike
        h.update(f"{type(exc).__name__}: {exc}".encode())
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["digest"] = h.hexdigest()
    return rec


def worker(checkout: str) -> None:
    """Print one JSON line per instance set: its label and per-instance records."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perfbench"]
    import planarclust as pc
    import workloads as W
    from planarclust import decode

    for label, name, seed, max_batches, factor in SETS:
        wl = W.WORKLOADS[name]
        records = [
            _instance_record(pc, decode, W, wl, spec, seed, max_batches, factor)
            for spec in W.instance_specs(wl, seed)
        ]
        print(json.dumps({"set": label, "records": records}), flush=True)


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
    differs = False
    for a, b in zip(old, new):
        ra, rb = a["records"], b["records"]
        for side, recs in (("old", ra), ("new", rb)):
            total = hashlib.sha256("".join(r["digest"] for r in recs).encode()).hexdigest()
            batches = sum(r["batches"] for r in recs)
            calls = sum(r["oracle_calls"] for r in recs)
            certified = "  ".join(
                f"{name} {sum(r['decodes'][name][1] for r in recs if name in r['decodes'])}"
                for name in DECODES if any(name in r["decodes"] for r in recs)
            )
            print(f"{a['set']:32s} {side} {len(recs):5d} instances  batches {batches:6d}  "
                  f"oracle calls {calls:6d}  certified: {certified}  {total}")
        diff = [i for i, (x, y) in enumerate(zip(ra, rb)) if x["digest"] != y["digest"]]
        gaps = [abs(x["bound"] - y["bound"]) for x, y in zip(ra, rb)
                if x["bound"] is not None and y["bound"] is not None]
        flips, energy_only = [], 0
        for i, (x, y) in enumerate(zip(ra, rb)):
            dx, dy = x["decodes"], y["decodes"]
            flipped = [n for n in DECODES if n in dx and n in dy and dx[n][1] != dy[n][1]]
            if flipped or x.get("error") != y.get("error") or dx.keys() != dy.keys():
                flips.append((i, flipped))
            elif dx != dy:
                energy_only += 1
        print(f"{a['set']:32s} {len(diff)} instances differ; largest bound difference "
              f"{max(gaps, default=0.0):.3g}; {energy_only} change an energy only")
        moves = []
        for n in DECODES:
            pairs = [(x["decodes"][n][0], y["decodes"][n][0]) for x, y in zip(ra, rb)
                     if n in x["decodes"] and n in y["decodes"]]
            if pairs:
                up = sum(ey > ex for ex, ey in pairs)
                down = sum(ey < ex for ex, ey in pairs)
                sums = " -> ".join(f"{math.fsum(e):.3f}" for e in zip(*pairs))
                moves.append(f"{n} {up} up / {down} down, sum {sums}")
        print(f"{a['set']:32s} energies: " + "  ".join(moves))
        for i, flipped in flips:
            x, y = ra[i], rb[i]
            what = "  ".join(
                f"{n} {x['decodes'][n][1]} -> {y['decodes'][n][1]} "
                f"(energy {x['decodes'][n][0]!r} -> {y['decodes'][n][0]!r})" for n in flipped
            )
            print(f"  instance {i}: certificate flips: {what} "
                  f"{x.get('error', '')} {y.get('error', '')}".rstrip())
        if diff or len(ra) != len(rb):
            differs = True
            print(f"DIFFERENT: {a['set']}" + (" instance count" if len(ra) != len(rb) else ""))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
