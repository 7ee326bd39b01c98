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

The LP over the seed rows alone needs no solver (`_seed_lp`).  Each seed
row holds only negative edges and has right-hand side 0, so with lambda
<= 0 it forces lambda = 0 on its edges; every other negative edge lies
in no row and sits at its lower bound theta.  That optimum is unique,
and multipliers that give each crossing edge C^T alpha = 1 are optimal
duals; every optimal dual has C^T alpha >= 1 on exactly those edges, so
the rounding decoder cuts the same edges from these as from a solver's.
The oracle checks that lambda first, and a run that it accepts (about a
quarter of the desk-scale graphs) returns without an LP model.

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
`lp.LpModel` of it.  The first batch makes the model from `restricted_lp`
over the seed rows and that batch's rows and solves it from scratch;
later batches append their rows and re-solve from the previous optimal
basis.  On a degenerate LP the warm solve may return another optimal
lambda than a cold solve of the same `restricted_lp`; the value is the
same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cut_oracle import _prepare_weights, min_cut_2color, split_into_basic_cuts
from .graph import PlanarGraph, check_integers, finite_weights
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
        return np.array(self.cuts)


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
    cut, value = min_cut_2color(graph, lam)
    lam = _prepare_weights(lam, graph)[2]  # the weights solved, kept from the call
    return lower_bound_value(theta, lam) + 1.5 * min(0.0, value), cut, value


def _fixed(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta < 0, theta with its negative entries zeroed): what the bound
    LP's rows read of theta, once per run."""
    neg = theta < 0
    return neg, np.where(neg, 0.0, theta)


def _cut_rows(neg: np.ndarray, fixed: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The bound LP's constraint rows and right-hand sides for the cut rows
    `cuts`, one row per cut, given `_fixed(theta)`."""
    # a row sum, not a matrix product: each right-hand side is then the same
    # whether its cut's rows are built alone or with the whole pool
    rhs = -np.where(cuts, fixed, 0.0).sum(axis=1)
    return cuts[:, neg], rhs


def _seed_lp(theta: np.ndarray, neg: np.ndarray, pool: CutPool) -> LpSolution:
    """The optimum of `restricted_lp(theta, pool)` for a pool of the
    negative-edge clustering's isolating cuts, in closed form.

    Lambda is 0 on the union of the cuts and theta on the other negative
    edges.  The graph is connected, so two clusters give one cut and each
    crossing edge of k > 2 clusters lies in two: multipliers of 1 and of
    1/2 give C^T alpha = 1 on the crossing edges.
    """
    crossing = pool.matrix(theta.size)[:, neg].any(axis=0)
    x = np.where(crossing, 0.0, theta[neg])
    duals = np.full(len(pool), 1.0 if len(pool) == 1 else 0.5)
    return LpSolution(x, duals, float(-x.sum()))


def restricted_lp(theta: np.ndarray, pool: CutPool) -> LpProblem:
    """The bound LP over the pooled cuts, one row per pooled cut.

    The variables are the negative edges' lambdas.  Edges with theta >= 0
    are fixed at lambda = theta and move into the right-hand side.  The
    LP's value plus sum(min(theta, 0)) is the bound; its constraint
    multipliers are the rounding decoder's cut weights.
    """
    theta = np.asarray(theta, dtype=float)
    neg, fixed = _fixed(theta)
    lower = theta[neg]
    constraints, rhs = _cut_rows(neg, fixed, pool.matrix(theta.size))
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
    pool) and the LP optimum over them (`_seed_lp`), or, when those are
    none, from lambda = theta.  It alternates oracle separation with LP
    solves until no cut is violated by more than tol.  At convergence the
    bound is `certified_bound` of the last lambda, sum(min(theta - lambda,
    0)) when the oracle value is zero.  The result's `lam` is the LP's
    lambda, inside its box.
    """
    if not tol >= 0:  # NaN fails this too
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    check_integers(max_batches=max_batches)
    if max_batches < 0:
        raise ValueError(f"max_batches must be nonnegative, got {max_batches!r}")
    theta = finite_weights(theta)
    if theta.shape != (graph.edge_count,):
        raise ValueError("theta must have one entry per edge")
    neg, fixed = _fixed(theta)
    pool = CutPool(split_into_basic_cuts(graph, neg))
    lp = _seed_lp(theta, neg, pool) if len(pool) else None
    model, batches = None, 0

    # the trivially feasible start, lambda = max(0, theta): no cut weighs < 0
    best_bound, best_lam = float(np.minimum(theta, 0.0).sum()), None

    while True:
        lam = theta.copy()
        if lp is not None:
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
        if model is None:
            model = LpModel(restricted_lp(theta, pool))
        else:
            model.add_rows(*_cut_rows(neg, fixed, np.array(new_cuts)))
        batches += 1
        lp = solve_lp(model.problem, model)
