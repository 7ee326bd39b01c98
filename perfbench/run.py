"""planarclust benchmark: one workload per invocation, every metric by name.

    python3 perfbench/run.py --workload grid-gpb --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from the
checkout's `src/`, never from an installed copy.  The workload's instances
come from `--seed` alone.  Instances are solved one after another through
the public entry points; every certificate the run produced is checked
outside the timed phase.  `--trace 1` adds traced rounds whose layer
metrics replace the end-to-end ones in the final line; their spans are
written to perfbench/out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_TAIL_SAMPLES = 100  # p90 is printed only with >= 10 samples beyond it

# end-to-end metrics of the final line (trace 0)
E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_cpu_s": "s",
    "bound_s": "s",
    "decode_s": "s",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}
# per-layer metrics of the final line (trace 1) that the run measures itself
RUN_LAYER_UNITS = {
    "trace.overhead_frac": "ratio",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.spans": "count",
    "trace.hooks_absent": "count",
    "instances.gen_s": "s",
    "host.slowdown": "ratio",
    "host.raw_solve_s": "s",
}


class SetupError(RuntimeError):
    """The checkout does not hold the library's sources."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in PINNED:
        os.environ[var] = "1"


def import_library():
    src = ROOT / "src"
    if not (src / "planarclust" / "__init__.py").is_file():
        raise SetupError(f"no planarclust sources under {src}; run from a source checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import planarclust

    if Path(planarclust.__file__).resolve().parent != src / "planarclust":
        raise SetupError(f"imported planarclust from {planarclust.__file__}, not from {src}")
    return planarclust


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in PINNED},
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def per_instance(rounds, attr: str) -> list:
    """Each instance's median over the given rounds of `attr` at reference host speed."""
    return [
        statistics.median(r.records[i].scaled(attr) for r in rounds)
        for i in range(len(rounds[0].records))
    ]


def evaluate(workload, seed: int, setup, rounds) -> dict:
    """Certificates, round-to-round identity and references; outside timing."""
    import reference
    from certify import certificate_problems
    from workloads import TOL

    base = rounds[0].records
    problems = []
    ok = []
    for i, (rec, item) in enumerate(zip(base, setup.items)):
        inst = item.instance
        if rec.error:
            why = [f"raised {rec.error}"]
        elif not rec.converged:
            why = ["bound loop did not converge"]
        else:
            why = certificate_problems(
                inst.graph, inst.theta, rec.lam, rec.bound, rec.labels, rec.energy, TOL
            )
        problems += [f"{inst.name}: {w}" for w in why]
        ok.append(not why)
    attempted = failed = 0
    for r, rnd in enumerate(rounds):
        for i, rec in enumerate(rnd.records):
            attempted += 1
            same = r == 0 or rec.key() == base[i].key()
            if not same:
                problems.append(f"round {r} {'traced' if rnd.traced else 'untraced'}: "
                                f"{setup.items[i].instance.name} differs from round 0")
            failed += not (ok[i] and same)

    ref = reference.load()
    bounds = [rec.bound for rec in base]
    has_ref, ref_problems = reference.seed_problems(ref, workload.name, seed, bounds)
    ref_problems += reference.canary_problems(ref)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems + ref_problems,
        "reference": "seed and canaries" if has_ref else "canaries only (no reference for this seed)",
        "correct": failed == 0 and not ref_problems,
    }


def end_to_end(workload, setup, rounds, verdict, host) -> dict:
    from workloads import TOL

    plain = [r for r in rounds if not r.traced]
    base = rounds[0].records
    good = [rec for rec in base if not rec.error]
    bound_s = setup.bound_s if workload.bound_in_setup else sum(per_instance(plain, "bound_s"))
    latency = per_instance(plain, "solve_s")
    n = len(latency)
    return {
        "setup_s": setup.setup_s,
        "solve_s": sum(latency),
        "solve_cpu_s": sum(per_instance(plain, "cpu_s")),
        "bound_s": bound_s,
        "decode_s": sum(per_instance(plain, "decode_s")),
        "certified_frac": sum(rec.energy - rec.bound <= TOL for rec in good) / len(base),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        # printed only: zero on certifying code, or too few samples on some workloads
        "gap_sum": sum(rec.energy - rec.bound for rec in good),
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "inst_p50_s": statistics.median(latency),
        "inst_p90_s": statistics.quantiles(latency, n=10)[-1] if n >= MIN_TAIL_SAMPLES else None,
        "inst_n": n,
        "host_slowdown": host.median_slowdown(),
        "raw_solve_s": sum(statistics.median(r.records[i].solve_s for r in plain) for i in range(n)),
    }


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        v = values.get(name)
        shown = "absent" if v is None else f"{v:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")


def run_benchmark(workload, seed: int, seconds: float, trace: bool, out_dir: Path = HERE / "out") -> dict:
    """Set up, measure, check and print one workload; returns the final object."""
    from hostspeed import HostSpeed
    from tracing import LAYER_UNITS, Tracer, layer_metrics
    from workloads import measure, set_up

    env = environment(seed)
    host = HostSpeed()
    setup = set_up(workload, seed, host)
    tracer = Tracer() if trace else None
    rounds = measure(workload, setup.items, seed, seconds, host, tracer)
    verdict = evaluate(workload, seed, setup, rounds)
    e2e = end_to_end(workload, setup, rounds, verdict, host)

    print(f"planarclust benchmark: workload {workload.name}, seed {seed}, "
          f"window {seconds:g} s, trace {int(trace)}")
    print("environment: " + json.dumps(env))
    print(f"rounds: {sum(not r.traced for r in rounds)} untraced, {sum(r.traced for r in rounds)} "
          f"traced; {len(setup.items)} instances per round; closed loop, one client")
    for i, r in enumerate(rounds):
        scaled = sum(rec.scaled("solve_s") for rec in r.records)
        print(f"  round {i} {'traced' if r.traced else 'untraced'}: {r.wall_s:.3f} s raw, "
              f"{scaled:.3f} s at reference speed")
    print_table("end-to-end (times at reference host speed; sums over instances of the "
                "median over untraced rounds):", e2e, E2E_UNITS)
    print(f"  {'host slowdown (median probe)':<28} {e2e['host_slowdown']:>14.6g} ratio "
          f"({len(host.durations)} probes)")
    print(f"  {'solve_s, raw wall time':<28} {e2e['raw_solve_s']:>14.6g} s")
    n = e2e["inst_n"]
    print(f"  {'inst_p50_s':<28} {e2e['inst_p50_s']:>14.6g} s (n={n})")
    if e2e["inst_p90_s"] is None:
        print(f"  {'inst_p90_s':<28} {'not reported':>14} s (n={n} < {MIN_TAIL_SAMPLES})")
    else:
        print(f"  {'inst_p90_s':<28} {e2e['inst_p90_s']:>14.6g} s (n={n})")
    print(f"  {'gap_sum':<28} {e2e['gap_sum']:>14.6g} energy")
    print(f"  {'failed_frac':<28} {e2e['failed_frac']:>14.6g} ratio "
          f"({verdict['failed']} of {verdict['attempted']})")
    print(f"checks: reference = {verdict['reference']}; {len(verdict['problems'])} problem(s)")
    for p in verdict["problems"]:
        print(f"  PROBLEM {p}")

    if trace:
        layers = layer_metrics(tracer, rounds)
        traced = sum(per_instance([r for r in rounds if r.traced], "solve_s"))
        layers.update({
            "trace.solve_s": traced,
            "trace.untraced_solve_s": e2e["solve_s"],
            "trace.overhead_frac": traced / e2e["solve_s"] - 1.0,
            "trace.spans": _median([r.span_range[1] - r.span_range[0] for r in rounds if r.traced]),
            "trace.hooks_absent": len(tracer.absent),
            "instances.gen_s": setup.gen_s,
            "host.slowdown": e2e["host_slowdown"],
            "host.raw_solve_s": e2e["raw_solve_s"],
        })
        units = {**LAYER_UNITS, **RUN_LAYER_UNITS}
        print_table("per layer (median over traced rounds):", layers, units)
        for hook in tracer.absent:
            print(f"  absent hook: {hook}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items() if k in layers}
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"spans-{workload.name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "absent_hooks": tracer.absent,
                       "fields": ["name", "start", "end", "parent", "info"],
                       "spans": tracer.spans}, fh)
        print(f"spans: {len(tracer.spans)} written to {path}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}

    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="planarclust benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_threads()
    try:
        import_library()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
