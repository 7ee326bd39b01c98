"""Feasible clusterings (upper bounds) from an optimized lower bound.

Two decoders and a polish:

* recursive bipartitioning: visit the must-cut edges (theta < lambda) in
  random order, force each that the solution does not cut yet into an
  optimal 2-coloring of the lambda subproblem, and merge that cut into the
  solution whenever the original energy does not increase; accepted cut
  edges get lambda zeroed.  An edge the solution already cuts is skipped,
  so a pass pays one oracle call per edge it still has to separate.

* rounding: read the constraint multipliers alpha >= 0 of the bound LP
  restricted to the pooled cut rows C, which solve the dual LP (minimize
  theta.z with a penalty that neutralizes cutting any negative edge beyond
  one, over z = C^T alpha); cut where the relaxed indicator z reaches 1/2
  and repair.
  A converged bound run already solved that LP last, and `best_decode`
  reuses its solution, one multiplier per pooled cut; the LP is solved
  again only when there is none or the pool has grown since.

* local search (Kernighan & Lin 1970; Keuper et al. 2015's KLj for
  multicuts), `best_decode`'s polish: move a vertex into a neighbouring
  cluster or a new singleton, or merge two adjacent clusters, while that
  lowers the energy; no oracle call.

Energies always refer to the repaired cut (connected components of the
uncut subgraph), so every result is a feasible clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bound import BoundResult, CutPool, restricted_lp
from .cut_oracle import min_cut_forced
from .graph import (
    PlanarGraph, check_integers, check_seeds, cut_energy, cut_from_partition, finite_weights,
    partition_from_cut,
)
from .lp import LpSolution, solve_lp

CERTIFICATE_TOL = 1e-6
ROUNDING_THRESHOLD = 0.5


@dataclass(frozen=True)
class DecodeResult:
    partition: np.ndarray
    energy: float
    method: str  # "recursive" | "rounding", the decoder a polish started from
    certificate: bool  # energy meets a given lower bound to CERTIFICATE_TOL


def _result(graph, theta, cut, method, bound):
    partition = partition_from_cut(graph, cut)
    energy = cut_energy(graph, theta, cut_from_partition(graph, partition))
    certificate = bound is not None and energy - bound <= CERTIFICATE_TOL
    return DecodeResult(partition=partition, energy=energy, method=method, certificate=certificate)


def decode_recursive(
    graph: PlanarGraph,
    theta,
    lam,
    seed: int = 0,
    restart: int = 0,
    bound: float | None = None,
) -> DecodeResult:
    """One pass of recursive bipartitioning with a seeded edge order.

    The pass walks a seeded permutation of the must-cut edges and calls
    `min_cut_forced` only for an edge that the partial solution leaves
    uncut when its turn comes.  `lam` should come from a bound run; the
    result is certified only against `bound`, that run's lower bound, and
    never when it is None.
    """
    theta = finite_weights(theta)
    lam = np.array(lam, dtype=float, copy=True)
    if theta.shape != (graph.edge_count,) or lam.shape != theta.shape:
        raise ValueError("theta and lambda must have one entry per edge")
    check_seeds(seed=seed, restart=restart)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, restart])))
    must_cut = np.flatnonzero(theta - lam < 0.0)
    order = rng.permutation(must_cut)

    s = np.zeros(graph.edge_count, dtype=bool)
    current_energy = 0.0
    for e in order:
        if s[e]:
            continue
        # the forced cut holds e, which s leaves uncut, so s2 differs from s
        x, _ = min_cut_forced(graph, lam, int(e))
        s2 = s | x
        repaired = cut_from_partition(graph, partition_from_cut(graph, s2))
        candidate_energy = cut_energy(graph, theta, repaired)
        if candidate_energy <= current_energy:
            s = s2
            current_energy = candidate_energy
            lam[x] = 0.0
    return _result(graph, theta, s, "recursive", bound)


def decode_rounding(
    graph: PlanarGraph,
    theta,
    pool: CutPool,
    bound: float | None = None,
    final_lp: LpSolution | None = None,
) -> DecodeResult:
    """Decode by thresholding the pool-restricted bound LP's cut multipliers.

    The multipliers alpha >= 0 of the pooled cut rows solve the LP dual:
    minimize theta.z - sum_neg theta_e * max(z_e - 1, 0) over z = C^T alpha.
    Edges with z >= 1/2 are cut.  Only a given `bound` certifies:
    over an incomplete pool the restricted LP's own value can exceed the
    optimum.  `final_lp`, a converged run's `BoundResult.final_lp`, is
    reused until the pool grows.
    """
    theta = finite_weights(theta)
    m = graph.edge_count
    if theta.shape != (m,):
        raise ValueError("theta must have one entry per edge")
    if any(cut.shape != (m,) for cut in pool):
        raise ValueError("pooled cuts must have one entry per edge")
    if not len(pool) or not (theta < 0).any():
        # no cuts or nothing to cut: alpha = 0 is optimal
        z = np.zeros(m)
    else:
        if final_lp is None or final_lp.duals.size != len(pool):
            final_lp = solve_lp(restricted_lp(theta, pool))
        z = pool.matrix(m).T @ final_lp.duals
    return _result(graph, theta, z >= ROUNDING_THRESHOLD, "rounding", bound)


def _local_search(graph: PlanarGraph, theta: np.ndarray, labels) -> np.ndarray:
    """Descend from the clustering `labels` one move at a time: (labels).

    A sweep moves each vertex to its best place, the neighbouring cluster
    joined by the most weight or a new singleton; after a sweep that moves
    nothing, the two adjacent clusters joined by the most weight merge.
    Each move lowers the energy by more than `tol`, far above rounding, so
    the search ends.  A cluster that a move splits keeps one label: the
    labels cut the same edges as their components do."""
    nbrs = [[] for _ in range(graph.vertex_count)]
    for u, v, t in zip(graph.tail.tolist(), graph.head.tolist(), theta.tolist()):
        nbrs[u].append((v, t))
        nbrs[v].append((u, t))
    label = np.asarray(labels).tolist()
    fresh, tol = max(label) + 1, 1e-12 * float(np.abs(theta).sum())
    while True:
        moved, shared = False, {}  # per pair of adjacent clusters, the weight between them
        for v, near in enumerate(nbrs):
            into = {}  # per neighbouring cluster, the weight of v's edges into it
            for u, t in near:
                into[label[u]] = into.get(label[u], 0.0) + t
            # leaving cuts v's edges into its own cluster a, joining b uncuts those into b
            a = label[v]
            own, b, most = into.pop(a, 0.0), fresh, 0.0
            for c, t in into.items():
                if t > most:
                    b, most = c, t
                if a < c:
                    shared[a, c] = shared.get((a, c), 0.0) + t
            if own - most < -tol:
                label[v], moved, fresh = b, True, max(fresh, b + 1)
        if not moved:  # the labels held for the whole sweep, so `shared` is theirs
            (a, b), t = max(shared.items(), key=lambda item: item[1], default=((0, 0), 0.0))
            if t <= tol:
                return np.array(label)
            label = [a if x == b else x for x in label]


def best_decode(
    graph: PlanarGraph,
    theta,
    bound_result: BoundResult,
    restarts: int = 10,
    seed: int = 0,
) -> DecodeResult:
    """Rounding, then up to `restarts` randomized recursive passes; every
    result but a certifying rounding is polished by `_local_search`.

    Returns the minimum-energy result, stopping early as soon as the
    energy matches the lower bound to certificate tolerance.
    """
    check_integers(restarts=restarts)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    check_seeds(seed=seed)
    theta = np.asarray(theta, dtype=float)
    bound = bound_result.bound

    def polished(res):
        cut = cut_from_partition(graph, _local_search(graph, theta, res.partition))
        return _result(graph, theta, cut, res.method, bound)

    best = decode_rounding(graph, theta, bound_result.pool, bound=bound, final_lp=bound_result.final_lp)
    if not best.certificate:
        best = polished(best)
    for r in range(restarts):
        if best.certificate:
            break
        res = decode_recursive(graph, theta, bound_result.lam, seed=seed, restart=r, bound=bound)
        if (res := polished(res)).energy < best.energy:
            best = res
    return best
