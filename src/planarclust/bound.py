"""Cutting-plane optimization of the clustering lower bound.

The bound LP maximizes sum(theta - lambda) subject to per-edge boxes
theta <= lambda <= max(0, theta) and nonnegativity of every 2-colorable
cut under lambda.  The cut constraints are exponential, so they are
generated on demand: solve the LP over the current pool, ask the cut
oracle for a most-violated constraint, split it into per-component
isolating cuts, and add those as a batch.

The pool starts with the isolating cuts of the clustering that cuts
exactly the negative edges (the components of the edges with theta >=
0).  Every isolating cut of a clustering is 2-colorable, so each is a
valid row for every theta, and these trace most of the optimal
clustering's boundaries: a 50x50 GPB grid converges in 3 batches where
an empty pool took 7, a 100x100 one in 9 where it took 21.  The oracle
still certifies every exit, so the seed only changes the path.

Edges with theta >= 0 have a degenerate box and are fixed at lambda =
theta outside the LP; their contribution moves into each constraint's
right-hand side.  A cut that touches no negative edge then gives an
empty row, which always holds and has multiplier 0, so the LP keeps one
row per pooled cut.

A lambda is a member of the constraint polytope only when the oracle
finds no violated cut, so sum(theta - lambda) alone is not a valid bound,
not even at convergence, where the oracle value may still be as low as
-tol.  A valid one is available for every lambda: the clustering
subproblem's optimum is at least 1.5x the oracle's 2-coloring optimum
(the two-versus-four-color inequality), so

    sum_e min(theta_e - lambda_e, 0) + 1.5 * min(0, oracle value)

is certified (`certified_bound`) for the lambda as the oracle solves it:
rounded up onto its grid unless a short decimal, which loses at most the
edge count times the grid step and keeps every pooled cut nonnegative
(`cut_oracle._prepare_weights`).  Every exit returns such a certificate
with its lambda unrounded, inside its box: at convergence the LP's last
one, on a stall or iteration-limit exit the best seen.  So `tol` only
decides when the loop stops.

Each batch only adds rows to the pool-restricted LP, so one run keeps one
`lp.LpModel` of it, appends each batch's rows and re-solves from the
previous optimal basis.  On a degenerate LP the warm solve may return
another optimal lambda than a cold solve of the same `restricted_lp`;
the value is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cut_oracle import _prepare_weights, min_cut_2color, split_into_basic_cuts
from .graph import PlanarGraph, finite_weights
from .lp import LpModel, LpProblem, LpSolution, solve_lp


class CutPool:
    """Ordered, deduplicated collection of 2-colorable cut rows."""

    def __init__(self, cuts=()):
        self.cuts: list[np.ndarray] = []
        self._seen: set[bytes] = set()
        for c in cuts:
            self.add(c)

    def add(self, cut) -> bool:
        cut = np.asarray(cut, dtype=bool)
        key = cut.tobytes()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.cuts.append(cut)
        return True

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self):
        return iter(self.cuts)

    def matrix(self, edge_count: int) -> np.ndarray:
        if not self.cuts:
            return np.zeros((0, edge_count), dtype=bool)
        return np.vstack(self.cuts)


@dataclass(frozen=True)
class BoundResult:
    lam: np.ndarray
    bound: float
    pool: CutPool
    batches: int
    converged: bool
    # the LP the loop solved last, when it converged: the rounding decoder's LP
    final_lp: LpSolution | None = None
    # `min_cut_2color` calls the loop made; 0 for a bound read from a file
    oracle_calls: int = 0


def lower_bound_value(theta, lam) -> float:
    """sum_e min(theta_e - lambda_e, 0)."""
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if theta.ndim != 1 or lam.shape != theta.shape:
        raise ValueError("theta and lambda must have one entry per edge")
    return float(np.minimum(theta - lam, 0.0).sum())


def certified_bound(graph: PlanarGraph, theta, lam) -> tuple[float, np.ndarray, float]:
    """The bound that `lam`, as the oracle solves it, certifies: sum_e
    min(theta_e - lambda_e, 0) + 1.5 * min(0, value), with the oracle's
    most violated cut and its value."""
    lam = _prepare_weights(lam, graph)[2]
    cut, value = min_cut_2color(graph, lam)
    return lower_bound_value(theta, lam) + 1.5 * min(0.0, value), cut, value


def _cut_rows(theta: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bound LP's constraint rows and right-hand sides for the cut rows
    `cuts`, one row per cut."""
    neg = theta < 0
    # a row sum, not a matrix product: each right-hand side is then the same
    # whether its cut's rows are built alone or with the whole pool
    rhs = -np.where(cuts, np.where(neg, 0.0, theta), 0.0).sum(axis=1)
    return cuts[:, neg], rhs


def restricted_lp(theta: np.ndarray, pool: CutPool) -> LpProblem:
    """The bound LP over the pooled cuts, one row per pooled cut.

    The variables are the negative edges' lambdas.  Edges with theta >= 0
    are fixed at lambda = theta and move into the right-hand side.  The
    LP's value plus sum(min(theta, 0)) is the bound; its constraint
    multipliers are the rounding decoder's cut weights.
    """
    theta = np.asarray(theta, dtype=float)
    lower = theta[theta < 0]
    constraints, rhs = _cut_rows(theta, pool.matrix(theta.size))
    return LpProblem(
        objective=-np.ones(lower.size), lower=lower, upper=np.zeros(lower.size),
        constraints=constraints, rhs=rhs,
    )


def optimize_lower_bound(
    graph: PlanarGraph,
    theta,
    tol: float = 1e-6,
    max_batches: int = 1000,
) -> BoundResult:
    """Cutting-plane loop; the bound is certified at every exit.

    Starts from a pool of the negative-edge clustering's isolating cuts
    (`split_into_basic_cuts(graph, theta < 0)`, first in the result's
    pool), or, when those are none, from the trivially feasible lambda =
    max(0, theta).  It alternates LP solves with oracle separation until
    no cut is violated by more than tol.  At convergence the bound is
    `certified_bound` of the last lambda, sum(min(theta - lambda, 0)) when
    the oracle value is zero.  The result's `lam` is the LP's lambda,
    inside its box.
    """
    if not tol >= 0:  # NaN fails this too
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    if max_batches < 0:
        raise ValueError(f"max_batches must be nonnegative, got {max_batches!r}")
    theta = finite_weights(theta)
    if theta.shape != (graph.edge_count,):
        raise ValueError("theta must have one entry per edge")
    neg = theta < 0
    pool = CutPool(split_into_basic_cuts(graph, neg))
    model = LpModel(restricted_lp(theta, pool))
    batches = 0

    # the trivially feasible start, lambda = max(0, theta): no cut weighs < 0
    best_bound, best_lam = float(np.minimum(theta, 0.0).sum()), None

    while True:
        lam, lp = theta.copy(), None
        if len(pool):
            lp = solve_lp(model.problem, model)
            lam[neg] = lp.x
        certified, cut, value = certified_bound(graph, theta, lam)
        if value >= -tol:
            return BoundResult(
                lam=lam, bound=certified, pool=pool, batches=batches, converged=True,
                final_lp=lp, oracle_calls=batches + 1,
            )
        if certified > best_bound:
            best_bound = certified
            best_lam = lam
        new_cuts = [basic for basic in split_into_basic_cuts(graph, cut) if pool.add(basic)]
        if not new_cuts or batches >= max_batches:
            # stalled at solver precision or out of budget: return the best
            # certified bound seen so far.  The start's plain sum can exceed
            # its certificate by the edge count times one grid step
            calls = batches + 1
            if best_lam is None:
                best_lam, calls = np.maximum(theta, 0.0), calls + 1
                best_bound = certified_bound(graph, theta, best_lam)[0]
            return BoundResult(
                lam=best_lam, bound=best_bound, pool=pool, batches=batches, converged=False,
                oracle_calls=calls,
            )
        model.add_rows(*_cut_rows(theta, np.vstack(new_cuts)))
        batches += 1
