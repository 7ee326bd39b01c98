"""Workloads of the planarclust benchmark and the closed loop that runs them.

A workload is a seeded list of instances.  One *round* solves every
instance once, one after another, each as soon as the previous one has
finished (a closed loop with a single client).  Rounds repeat while the
next one is predicted to end inside the measuring window.  A host-speed
probe runs between instances (see hostspeed.py); every instance time is
kept raw and with the host slowdown over it, so run.py can report it at
the reference speed.

Every round works on fresh copies of the graph objects, so caches the
library keys on a graph's identity start cold for each instance, as they
would for an instance loaded once by a user.
"""

from __future__ import annotations

import copy
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import planarclust as pc
from hostspeed import HostSpeed
from planarclust import decode as pc_decode

TOL = 1e-6  # bound-loop tolerance and certificate tolerance
# One recursive pass per rounding failure: on 550 sampled desk instances no
# recursive pass certified an instance that rounding had left uncertified,
# and ten passes made decode_s spread 0.24 between seeds.
RESTARTS = 1


@dataclass(frozen=True)
class Workload:
    """A seeded instance list and how each instance is solved.

    Instance i has size `sizes[i % len(sizes)]` and, for grids, beta
    `betas[(i // len(sizes)) % len(betas)]`, so every (size, beta) pair
    occurs.  Without betas the instances are random planar graphs of
    `size` vertices, otherwise size x size GPB grids.  With
    `bound_in_setup` the bound is computed during set-up and the timed
    phase runs one `decode_recursive` pass per instance.
    """

    name: str
    tag: int  # separates the instance seeds of different workloads
    sizes: tuple
    betas: tuple
    count: int
    bound_in_setup: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-gpb", 1, sizes=(28,), betas=(0.27, 0.12), count=50),
        Workload("planar-desk", 2, sizes=(10, 20), betas=(), count=1000),
        Workload("decode-recursive", 3, sizes=(14,), betas=(0.27, 0.12), count=78,
                 bound_in_setup=True),
    )
}


def instance_specs(workload: Workload, seed: int) -> list[tuple]:
    """(size, beta or None, generator seed) per instance; pure in `seed`."""
    specs = []
    for i in range(workload.count):
        size = workload.sizes[i % len(workload.sizes)]
        beta = None
        if workload.betas:
            beta = workload.betas[(i // len(workload.sizes)) % len(workload.betas)]
        gen_seed = int(np.random.SeedSequence([seed, workload.tag, i]).generate_state(1)[0])
        specs.append((size, beta, gen_seed))
    return specs


def make_instance(spec) -> pc.Instance:
    size, beta, gen_seed = spec
    if beta is None:
        return pc.gen_random_planar(size, seed=gen_seed)
    return pc.gen_grid(size, size, pc.GpbLikeWeights(beta), seed=gen_seed)


@dataclass
class Item:
    instance: pc.Instance
    bound_result: pc.BoundResult | None = None  # set-up bound (decode-recursive)


@dataclass
class SetupResult:
    items: list
    setup_s: float  # median over repetitions, at reference host speed
    gen_s: float  # median instance-generation time, raw
    bound_s: float  # sum of the instances' median set-up bound time at reference speed
    # (0 unless bound_in_setup)


def _warm_up() -> None:
    """Load the lazily imported solver code paths once."""
    inst = pc.gen_grid(6, 6, pc.GpbLikeWeights(0.27), seed=0)
    br = pc.optimize_lower_bound(inst.graph, inst.theta, tol=TOL)
    pc.best_decode(inst.graph, inst.theta, br, restarts=1, seed=0)
    pc.decode_recursive(inst.graph, inst.theta, br.lam, seed=0, bound=br.bound)


def set_up(workload: Workload, seed: int, host: HostSpeed, repeats: int = 3) -> SetupResult:
    """Warm up, generate the instances and (decode-recursive) their bounds.

    Repeated `repeats` times; set-up and generation times are medians, the
    bound time is the sum of each instance's median, as in the timed phase.
    The last items are kept.
    """
    specs = instance_specs(workload, seed)
    totals, gens = [], []
    bound_times = [[] for _ in specs]
    items = []
    for _ in range(repeats):
        host.probe()
        t0 = time.perf_counter()
        _warm_up()
        t1 = time.perf_counter()
        items = [Item(make_instance(s)) for s in specs]
        t2 = time.perf_counter()
        bounds = []  # (start, end) of each set-up bound; probes run between them
        if workload.bound_in_setup:
            for it in items:
                b0 = time.perf_counter()
                it.bound_result = pc.optimize_lower_bound(
                    it.instance.graph, it.instance.theta, tol=TOL
                )
                bounds.append((b0, time.perf_counter()))
                host.tick()
        t3 = time.perf_counter()
        host.probe()
        work = t2 - t0 + sum(b1 - b0 for b0, b1 in bounds)  # probe time left out
        totals.append(work / host.slowdown(t0, t3))
        gens.append(t2 - t1)
        for times, (b0, b1) in zip(bound_times, bounds):
            times.append((b1 - b0) / host.slowdown(b0, b1))
    return SetupResult(
        items=items,
        setup_s=statistics.median(totals),
        gen_s=statistics.median(gens),
        bound_s=sum(statistics.median(t) for t in bound_times if t),
    )


@dataclass
class Record:
    """Outcome of one instance in one round."""

    bound: float = float("nan")
    energy: float = float("nan")
    labels: np.ndarray | None = None
    lam: np.ndarray | None = None
    batches: int = 0
    oracle_calls: int = 0
    pool_rows: int = 0
    converged: bool = False
    method: str = ""
    bound_s: float = 0.0  # raw wall times
    decode_s: float = 0.0
    cpu_s: float = 0.0  # process CPU time of bound and decode
    span: tuple = (0.0, 0.0)  # perf_counter at start and end
    slowdown: float = 1.0  # host slowdown over `span`
    error: str = ""

    @property
    def solve_s(self) -> float:
        return self.bound_s + self.decode_s

    def scaled(self, attr: str) -> float:
        """`attr` (a time) at the reference host speed."""
        return getattr(self, attr) / self.slowdown

    def key(self) -> tuple:
        """Everything two runs of the same inputs must reproduce exactly."""
        labels = b"" if self.labels is None else self.labels.tobytes()
        return (
            self.bound, self.energy, labels, self.batches, self.oracle_calls,
            self.pool_rows, self.converged, self.method, self.error,
        )


@dataclass
class Round:
    traced: bool
    wall_s: float
    records: list = field(default_factory=list)
    span_range: tuple = (0, 0)  # slice of the tracer's spans
    counts: dict = field(default_factory=dict)  # tracer counter deltas


def _solve_one(workload: Workload, item: Item, graph, seed: int, tracer) -> Record:
    span = tracer.span if tracer is not None else (lambda name: nullcontext({}))
    theta = item.instance.theta
    rec = Record()
    try:
        with span("instance"):
            c0 = time.process_time()
            t0 = time.perf_counter()
            if workload.bound_in_setup:
                br = item.bound_result
            else:
                with span("bound") as info:
                    br = pc.optimize_lower_bound(graph, theta, tol=TOL)
                    info.update(batches=br.batches, pool_rows=len(br.pool))
            t1 = time.perf_counter()
            with span("decode"):
                if workload.bound_in_setup:
                    # looked up at call time so the traced run sees its hook
                    res = pc_decode.decode_recursive(
                        graph, theta, br.lam, seed=seed, restart=0, bound=br.bound
                    )
                else:
                    res = pc.best_decode(graph, theta, br, restarts=RESTARTS, seed=seed)
            t2 = time.perf_counter()
            c2 = time.process_time()
    except Exception:  # one failing instance must not end the run
        rec.error = traceback.format_exc().strip().splitlines()[-1]
        return rec
    rec.bound, rec.lam = br.bound, br.lam
    rec.batches, rec.oracle_calls, rec.pool_rows = br.batches, br.oracle_calls, len(br.pool)
    rec.converged = br.converged
    rec.energy, rec.labels, rec.method = res.energy, res.partition, res.method
    rec.bound_s = 0.0 if workload.bound_in_setup else t1 - t0
    rec.decode_s = t2 - t1
    rec.cpu_s = c2 - c0
    rec.span = (t0, t2)
    return rec


def run_round(workload: Workload, items: list, seed: int, host: HostSpeed, tracer=None) -> Round:
    graphs = [copy.copy(it.instance.graph) for it in items]
    first_span = len(tracer.spans) if tracer is not None else 0
    counts0 = dict(tracer.counts) if tracer is not None else {}
    host.probe()
    t0 = time.perf_counter()
    records = []
    for it, g in zip(items, graphs):
        records.append(_solve_one(workload, it, g, seed, tracer))
        host.tick()
    wall = time.perf_counter() - t0
    host.probe()
    for rec in records:
        rec.slowdown = host.slowdown(*rec.span)
    rnd = Round(traced=tracer is not None, wall_s=wall, records=records)
    if tracer is not None:
        rnd.span_range = (first_span, len(tracer.spans))
        rnd.counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
    return rnd


def measure(workload: Workload, items: list, seed: int, seconds: float, host: HostSpeed,
            tracer=None) -> list:
    """Closed loop of rounds inside a window of `seconds`.

    Untraced runs repeat plain rounds, at least one: a round is sized to
    fill most of the window, because more distinct instances steady the
    result across seeds, while host noise is taken out by the probe rather
    than by repeats.  Traced runs alternate plain and traced rounds, at
    least one of each, so the tracing overhead is measured on the same
    inputs in the same process.
    """
    rounds = []
    start = time.perf_counter()
    at_least = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            with tracer:
                rounds.append(run_round(workload, items, seed, host, tracer))
        else:
            rounds.append(run_round(workload, items, seed, host))
        if len(rounds) < at_least:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + rounds[-1].wall_s > seconds:
            return rounds
