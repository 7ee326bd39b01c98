"""Command-line driver: solve, bound, decode, oracle queries, generation,
and batch benchmarking.

Result documents are JSON on stdout (diagnostics go to stderr) so runs can
be scripted; `solve` exits 0 when the clustering is certified optimal and
2 when a positive bound gap remains.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bound import BoundResult, CutPool, certified_bound, optimize_lower_bound
from .cut_oracle import OracleError
from .decode import best_decode
from .graph import GraphError
from .instances import (
    GpbLikeWeights,
    ParseError,
    UniformWeights,
    gen_grid,
    gen_random_planar,
    read_instance,
    write_instance,
)
from .lp import LpError
from .oracle import brute_cc, brute_cc2, brute_cck, check_coloring_chain, full_lp_bound

FORMAT_VERSION = 1
BETA_PRESETS = (0.35, 0.27, 0.20, 0.12)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_bound_flags(p):
    p.add_argument(
        "--tol", type=float, default=1e-6, help="when the cut loop stops; the bound is sound at any value"
    )
    p.add_argument("--max-batches", type=int, default=1000, help="cutting-plane batch limit")


def _add_decode_flags(p):
    p.add_argument("--restarts", type=int, default=10, help="recursive decode restarts")
    p.add_argument("--seed", type=int, default=0, help="decode order seed")


def build_parser():
    parser = _Parser(prog="planarclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="lower bound + decoding, full pipeline")
    p.add_argument("instance", type=Path)
    _add_bound_flags(p)
    _add_decode_flags(p)

    p = sub.add_parser("bound", help="lower bound only; save the result document")
    p.add_argument("instance", type=Path)
    p.add_argument("--out", type=Path, help="write the bound document here")
    _add_bound_flags(p)

    p = sub.add_parser("decode", help="decode from a saved bound document")
    p.add_argument("instance", type=Path)
    p.add_argument("--bound", type=Path, required=True, help="document from `bound --out`")
    _add_decode_flags(p)

    p = sub.add_parser("oracle", help="exact brute-force values (desk scale)")
    p.add_argument("instance", type=Path)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--cc", action="store_true", help="optimal clustering cost (V <= 12)")
    g.add_argument("--cc2", action="store_true", help="optimal 2-coloring cost (V <= 20)")
    g.add_argument("--cck", type=int, metavar="K", help="optimal K-coloring cost")
    g.add_argument("--chain", action="store_true", help="two/four-coloring inequality report")
    g.add_argument(
        "--full-lp",
        action="store_true",
        help="bound LP with the complete cut constraint set (V <= 10)",
    )

    p = sub.add_parser("gen", help="generate an instance file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--grid", metavar="WxH", help="grid instance, e.g. 20x20")
    g.add_argument("--random", type=int, metavar="N", help="random planar instance")
    p.add_argument(
        "--beta",
        type=float,
        help=f"boundary-probability weights with this threshold (presets: {BETA_PRESETS})",
    )
    p.add_argument("--uniform", metavar="A,B", help="uniform weights on [A,B] (default -1,1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("bench", help="run solve over a directory, emit CSV")
    p.add_argument("directory", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_bound_flags(p)
    _add_decode_flags(p)
    return parser


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _solve_instance(instance, args):
    t0 = time.perf_counter()
    br = optimize_lower_bound(instance.graph, instance.theta, tol=args.tol, max_batches=args.max_batches)
    t1 = time.perf_counter()
    res = best_decode(instance.graph, instance.theta, br, restarts=args.restarts, seed=args.seed)
    t2 = time.perf_counter()
    return br, res, (t1 - t0) * 1000.0, (t2 - t1) * 1000.0


def _result_fields(instance, br, res=None):
    """Fields every result document shares; the decoded ones when `res` is given."""
    doc = {"format_version": FORMAT_VERSION, "name": instance.name, "bound": br.bound}
    if res is not None:
        doc.update(
            energy=res.energy,
            gap=res.energy - br.bound,
            certificate=bool(res.certificate),
            method=res.method,
            labels=res.partition.tolist(),
        )
    return doc


def cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    br, res, ms_bound, ms_decode = _solve_instance(instance, args)
    _emit(
        {
            **_result_fields(instance, br, res),
            "converged": bool(br.converged),
            "batches": br.batches,
            "oracle_calls": br.oracle_calls,
            "wall_times": {"bound_ms": ms_bound, "decode_ms": ms_decode},
            "params": {
                "tol": args.tol,
                "restarts": args.restarts,
                "seed": args.seed,
                "max_batches": args.max_batches,
            },
        }
    )
    return 0 if res.certificate else 2


def cmd_bound(args) -> int:
    instance = read_instance(args.instance)
    t0 = time.perf_counter()
    br = optimize_lower_bound(instance.graph, instance.theta, tol=args.tol, max_batches=args.max_batches)
    ms = (time.perf_counter() - t0) * 1000.0
    doc = {
        **_result_fields(instance, br),
        "converged": bool(br.converged),
        "batches": br.batches,
        "oracle_calls": br.oracle_calls,
        "lambda": [repr(float(x)) for x in br.lam],
        "pool": [np.flatnonzero(c).tolist() for c in br.pool],
        "wall_times": {"bound_ms": ms},
        "params": {"tol": args.tol, "max_batches": args.max_batches},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    _emit(doc)
    return 0


def _load_bound(path, graph, theta):
    """The bound document at `path`, checked against the instance.

    The bound must not exceed what the file's lambda certifies
    (`bound.certified_bound`).  `bound --out` writes exactly that value,
    so an honest file passes at any --tol.
    """
    edge_count = graph.edge_count
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("lambda", "pool", "bound", "batches", "converged"):
        if not isinstance(doc, dict) or key not in doc:
            raise ParseError(f"{path}: missing required field '{key}'")
    try:
        lam = np.array([float(x) for x in doc["lambda"]], dtype=float)
        pool_ids = [np.asarray(ids) for ids in doc["pool"]]
        bound = float(doc["bound"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed field: {exc}") from exc
    batches, converged = doc["batches"], doc["converged"]
    # the type, not isinstance: JSON true and false are Python ints too
    if type(batches) is not int or batches < 0:
        raise ParseError(f"{path}: batches must be a non-negative integer")
    if type(converged) is not bool:
        raise ParseError(f"{path}: converged must be true or false")
    if lam.shape != (edge_count,):
        raise ParseError(f"{path}: lambda length does not match the instance")
    if not (np.isfinite(lam).all() and np.isfinite(bound)):
        raise ParseError(f"{path}: lambda and bound must be finite")
    certified = certified_bound(graph, theta, lam)[0]
    if bound > certified:
        raise ParseError(f"{path}: bound {bound!r} exceeds the {certified!r} that its lambda certifies")
    pool = CutPool()
    for k, ids in enumerate(pool_ids):
        # numpy would truncate float ids and wrap negative ones silently
        if ids.ndim != 1 or (ids.size and ids.dtype.kind != "i"):
            raise ParseError(f"{path}: pool cut {k} is not a list of integer edge ids")
        if ids.size and (ids.min() < 0 or ids.max() >= edge_count):
            raise ParseError(f"{path}: pool cut {k} names an edge outside 0..{edge_count - 1}")
        cut = np.zeros(edge_count, dtype=bool)
        cut[ids.astype(np.int64)] = True
        pool.add(cut)
    return BoundResult(
        lam=lam,
        bound=bound,
        pool=pool,
        batches=batches,
        converged=converged,
    )


def cmd_decode(args) -> int:
    instance = read_instance(args.instance)
    br = _load_bound(args.bound, instance.graph, instance.theta)
    t0 = time.perf_counter()
    res = best_decode(instance.graph, instance.theta, br, restarts=args.restarts, seed=args.seed)
    ms = (time.perf_counter() - t0) * 1000.0
    _emit({**_result_fields(instance, br, res), "wall_times": {"decode_ms": ms}})
    return 0 if res.certificate else 2


def cmd_oracle(args) -> int:
    instance = read_instance(args.instance)
    doc = {"format_version": FORMAT_VERSION, "name": instance.name}
    if args.cc:
        labels, value = brute_cc(instance.graph, instance.theta)
        doc.update(query="cc", value=value, labels=labels.tolist())
    elif args.cc2:
        cut, value = brute_cc2(instance.graph, instance.theta)
        doc.update(query="cc2", value=value, cut=np.flatnonzero(cut).tolist())
    elif args.cck is not None:
        doc.update(query=f"cc{args.cck}", value=brute_cck(instance.graph, instance.theta, args.cck))
    elif args.chain:
        r = check_coloring_chain(instance.graph, instance.theta)
        doc.update(
            query="chain",
            cc2=r.cc2,
            cc4=r.cc4,
            merged_energies=list(r.merged_energies),
            ok=r.ok,
        )
    else:
        doc.update(
            query="full_lp",
            with_upper_bounds=full_lp_bound(instance.graph, instance.theta, True),
            without_upper_bounds=full_lp_bound(instance.graph, instance.theta, False),
        )
    _emit(doc)
    return 0


def cmd_gen(args) -> int:
    if args.beta is not None and args.uniform is not None:
        raise ParseError("choose either --beta or --uniform, not both")
    if args.uniform is not None:
        try:
            a, b = (float(x) for x in args.uniform.split(","))
        except ValueError:
            raise ParseError(f"--uniform takes A,B, not {args.uniform!r}") from None
        if not np.isfinite([a, b]).all():
            raise ParseError(f"--uniform takes finite A,B, not {args.uniform!r}")
        if a > b:
            raise ParseError(f"--uniform takes A,B with A <= B, not {args.uniform!r}")
        model = UniformWeights(a, b)
    elif args.beta is not None:
        model = GpbLikeWeights(args.beta)
    else:
        model = UniformWeights()
    if args.grid:
        try:
            w, h = (int(x) for x in args.grid.lower().split("x"))
        except ValueError:
            raise ParseError(f"--grid takes WxH, not {args.grid!r}") from None
        instance = gen_grid(w, h, model, args.seed)
    else:
        if args.beta is not None or args.uniform is not None:
            raise ParseError("--beta and --uniform apply to grid instances only")
        instance = gen_random_planar(args.random, args.seed)
    write_instance(instance, args.out)
    print(f"wrote {instance.name} to {args.out}", file=sys.stderr)
    return 0


def _bench_one(args, path):
    instance = read_instance(path)
    br, res, ms_bound, ms_decode = _solve_instance(instance, args)
    return {
        **_result_fields(instance, br, res),
        "batches": br.batches,
        "ms_bound": ms_bound,
        "ms_decode": ms_decode,
    }


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs!r}")
    paths = sorted(args.directory.glob("*.json"))
    if not paths:
        print(f"no instance files in {args.directory}", file=sys.stderr)
        return 1
    bench_one = functools.partial(_bench_one, args)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(bench_one, paths))
    else:
        rows = list(map(bench_one, paths))
    fieldnames = ["name", "bound", "energy", "gap", "certificate", "batches", "ms_bound", "ms_decode"]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "bound": cmd_bound,
    "decode": cmd_decode,
    "oracle": cmd_oracle,
    "gen": cmd_gen,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, GraphError, OSError, ValueError, OracleError, LpError) as exc:
        print(f"planarclust: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
