"""Reference bounds committed with the benchmark, and the script that makes them.

The bound LP's optimum value is unique, so every correct version of the
solver reproduces these values; only the lambda and the clustering behind
them may change.  Two kinds of reference are kept in reference.json:

* per workload and seed (seeds 0 .. N-1), the instance count and the sum
  of the bounds of the seed's instances;
* a few fixed small "canary" instances, checked on every run whatever its
  seed, each with its own bound.

Regenerate after changing a workload's instances (a few minutes per seed
on grid-gpb):

    python3 perfbench/reference.py --seeds 20
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# (size, beta or None, generator seed), built like workload instances
CANARIES = ((12, 0.27, 1), (12, 0.12, 2), (20, None, 3), (10, None, 4))
CANARY_TOL = 1e-6


def digest_tol(n: int) -> float:
    """Allowed |sum of bounds - reference| for n instances."""
    return 1e-6 * max(1.0, math.sqrt(n))


def load() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def seed_problems(ref: dict, workload: str, seed: int, bounds: list) -> tuple[bool, list]:
    """(whether a reference exists for this seed, mismatch messages)."""
    entry = ref["seeds"].get(workload, {}).get(str(seed))
    if entry is None:
        return False, []
    n, total = entry
    if n != len(bounds):
        return True, [f"reference has {n} instances, the run {len(bounds)}"]
    got = math.fsum(bounds)
    if abs(got - total) > digest_tol(n):
        return True, [f"sum of bounds {got!r} differs from the reference {total!r}"]
    return True, []


def bounds_of(specs) -> list:
    """Converged bound of each instance spec, solved as the workloads do."""
    import planarclust as pc

    from workloads import TOL, make_instance

    out = []
    for spec in specs:
        inst = make_instance(spec)
        out.append(pc.optimize_lower_bound(inst.graph, inst.theta, tol=TOL).bound)
    return out


def canary_problems(ref: dict) -> list:
    got = bounds_of(CANARIES)
    if len(ref["canaries"]) != len(got):
        return [f"reference lists {len(ref['canaries'])} canaries, the benchmark {len(got)}"]
    return [
        f"canary {spec}: bound {b!r} differs from the reference {r!r}"
        for spec, b, r in zip(CANARIES, got, ref["canaries"])
        if abs(b - r) > CANARY_TOL
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="reference seeds 0 .. N-1")
    parser.add_argument("--workload", action="append", help="only these workloads (repeatable)")
    args = parser.parse_args(argv)

    import run

    run.pin_threads()
    run.import_library()
    from workloads import WORKLOADS, instance_specs

    canaries = bounds_of(CANARIES)
    tables = {}
    for name in args.workload or list(WORKLOADS):
        table = tables[name] = {}
        for seed in range(args.seeds):
            bounds = bounds_of(instance_specs(WORKLOADS[name], seed))
            table[str(seed)] = [len(bounds), math.fsum(bounds)]
            print(f"{name} seed {seed}: {len(bounds)} bounds, sum {table[str(seed)][1]!r}", flush=True)
    # re-read just before writing, so runs for different workloads can share the file
    ref = load() if REFERENCE_FILE.exists() else {"seeds": {}}
    ref["canaries"] = canaries
    ref["seeds"].update(tables)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
