"""Small dense LP solver: box-bounded variables, >=-inequalities, duals.

Problems here are tiny (one variable per negative edge, tens to a few
hundred cut constraints), so this wraps scipy's HiGHS backend rather than
hand-rolling a simplex; the module contract (maximize, A x >= rhs
constraints, nonnegative constraint duals, strong duality) is what the
rest of the package and the tests depend on.  The bound loop reads the
primal x, the rounding decoder the duals of the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


class LpError(RuntimeError):
    pass


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  s.t.  lower <= x <= upper, constraints x >= rhs.

    `constraints` holds one row per constraint (shape (rows, n)); it and
    `rhs` default to no constraints.  Upper bounds may be +inf (only the
    reference bound LP without upper bounds needs that); lower bounds must
    be finite so the maximization cannot be unbounded below feasibility.
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    constraints: np.ndarray | None = None
    rhs: np.ndarray | None = None

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if not (obj.ndim == 1 and obj.shape == lo.shape == hi.shape):
            raise ValueError("objective and bounds must share a shape")
        if not np.all(np.isfinite(lo)):
            raise ValueError("lower bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        a = np.zeros((0, obj.size)) if self.constraints is None else self.constraints
        b = np.zeros(0) if self.rhs is None else self.rhs
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if b.ndim != 1 or a.shape != (b.size, obj.size):
            raise ValueError("constraints must be a (rows, n) array with one rhs per row")
        fields = {"objective": obj, "lower": lo, "upper": hi, "constraints": a, "rhs": b}
        for name, value in fields.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LpSolution:
    """Primal solution plus nonnegative constraint multipliers.

    The duals satisfy complementary slackness and strong duality in the
    form  objective_value = -duals.rhs + box terms of (objective + A^T
    duals), i.e. reduced costs vanish at variables strictly inside their
    box.
    """

    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    duals: np.ndarray | None
    objective_value: float | None


_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve to optimality; feasibility ~1e-9, duality gap ~1e-8."""
    if problem.objective.size == 0:
        return LpSolution("optimal", np.zeros(0), np.zeros(problem.rhs.size), 0.0)
    res = linprog(
        c=-problem.objective,
        A_ub=-problem.constraints,
        b_ub=-problem.rhs,
        bounds=list(zip(problem.lower, problem.upper)),
        method="highs",
        options=_HIGHS_OPTS,
    )
    if res.status == 2:
        return LpSolution("infeasible", None, None, None)
    if res.status != 0:
        raise LpError(f"LP solver failed: status {res.status}: {res.message}")
    duals = -np.asarray(res.ineqlin.marginals, dtype=float)
    # tiny negative multipliers are solver noise
    duals = np.where(np.abs(duals) < 1e-11, 0.0, duals)
    return LpSolution("optimal", np.asarray(res.x), duals, float(-res.fun))
