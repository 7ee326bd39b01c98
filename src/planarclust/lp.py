"""Small dense LP solver: box-bounded variables, >=-inequalities, duals.

Problems here are tiny (one variable per negative edge, tens to a few
hundred cut constraints), so this drives the HiGHS solver that ships with
scipy rather than hand-rolling a simplex; the module contract (maximize,
A x >= rhs constraints, nonnegative constraint duals, strong duality) is
what the rest of the package and the tests depend on.  The bound loop
reads the primal x, the rounding decoder the duals of the same problem.

The model goes to scipy's bundled HiGHS binding
(`scipy.optimize._highspy._core`) directly, not through
`scipy.optimize.linprog`: on the bound loop's LPs (about 8 rows each)
most of a linprog call is spent in its wrapper, which re-validates every
option on each call, and not in HiGHS.  On the LPs of 1000 desk-scale
graphs a call took 2.5 ms through linprog and 0.7 ms directly (scipy
1.17.1, one core of an x86-64 host).  The model, the options that
change the result and the post-solve check are linprog's, so a cold
`solve_lp` is bit-identical to `linprog(method="highs")`, which the
tests keep as the reference.

The bound loop's LP only grows.  An `LpModel` owns its HiGHS model:
`add_rows` appends rows, and `solve_lp(model.problem, model)` re-solves
with dual simplex from the previous optimal basis (Huangfu & Hall 2018),
which stays dual feasible when rows are added.  These warm solves run
the same options, except that presolve is off, and the same post-solve
check, and reach the same optimal value; but on a degenerate LP they may
stop at another optimal vertex, so their x and duals need not equal a
cold solve's.
The binding is private to scipy; this is the only module that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs


class LpError(RuntimeError):
    pass


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  s.t.  lower <= x <= upper, constraints x >= rhs.

    `constraints` holds one row per constraint (shape (rows, n)); it and
    `rhs` default to no constraints.  Upper bounds may be +inf (only the
    reference bound LP without upper bounds needs that); lower bounds must
    be finite so the maximization cannot be unbounded below feasibility.
    Every finite bound and right-hand side must be below 1e20 in magnitude,
    from which HiGHS reads a value as infinite (its `infinite_bound`).
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
        sides = np.abs(np.r_[lo, hi, b])
        if (sides[np.isfinite(sides)] >= 1e20).any():
            raise ValueError("LP bounds and right-hand sides must be below 1e20 in magnitude")
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

    x: np.ndarray
    duals: np.ndarray
    objective_value: float


_HIGHS_OPTS = {
    "output_flag": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# linprog's post-solve check: an "optimal" point that misses its problem by
# more than this is a solver failure
_CHECK_TOL = 10 * np.sqrt(1e-9)


def _highs_model(problem: LpProblem) -> highs.HighsLp:
    """minimize -objective . x  s.t.  -constraints x <= -rhs, as linprog poses it."""
    n, m = problem.objective.size, problem.rhs.size
    cols = -problem.constraints.T
    col, row = np.nonzero(cols)  # column-major order: the CSC layout
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    # integer arrays convert faster to HiGHS's index vectors from lists
    lp.a_matrix_.start_ = np.searchsorted(col, np.arange(n + 1)).tolist()
    lp.a_matrix_.index_ = row.tolist()
    lp.a_matrix_.value_ = cols[col, row]
    lp.col_cost_ = -problem.objective
    lp.col_lower_ = problem.lower
    lp.col_upper_ = problem.upper
    lp.row_lower_ = np.full(m, -np.inf)
    lp.row_upper_ = -problem.rhs
    return lp


def _new_solver() -> highs._Highs:
    solver = highs._Highs()
    for name, value in _HIGHS_OPTS.items():
        solver.setOptionValue(name, value)
    return solver


class LpModel:
    """One HiGHS model of an LP whose rows only grow.

    The constructor passes `problem` to HiGHS; `add_rows` appends rows to
    HiGHS and to `self.problem`.  `solve_lp(model.problem, model)` then
    re-solves from the last optimal basis.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.solver = _new_solver()
        # with presolve left on, the solves of the bound loop's desk-scale
        # LPs took 0.34-0.40 ms each, without it 0.29-0.32 ms (three runs
        # each over 1000 graphs, one core of an x86-64 host)
        self.solver.setOptionValue("presolve", "off")
        self.solver.passModel(_highs_model(problem))

    def add_rows(self, constraints, rhs) -> None:
        """Append the rows `constraints x >= rhs`."""
        p = self.problem
        problem = LpProblem(
            p.objective, p.lower, p.upper, np.vstack([p.constraints, constraints]), np.r_[p.rhs, rhs]
        )
        a, b = problem.constraints[p.rhs.size :], problem.rhs[p.rhs.size :]
        # -a x <= -b, as `_highs_model` poses the rows
        row, col = np.nonzero(a)  # row-major order: the CSR layout
        starts = np.searchsorted(row, np.arange(b.size)).astype(np.int32)
        status = self.solver.addRows(
            b.size, np.full(b.size, -np.inf), -b, row.size, starts, col.astype(np.int32), -a[row, col]
        )
        if status == highs.HighsStatus.kError:
            raise LpError("LP solver rejected the new rows")
        self.problem = problem


def solve_lp(problem: LpProblem, model: LpModel | None = None) -> LpSolution:
    """Solve to optimality (feasibility ~1e-9, duality gap ~1e-8), else raise LpError.

    Without `model` the solve starts from scratch.  With it, `problem`
    must be `model.problem` and the solve starts from the last optimal
    basis.
    """
    if model is not None and problem is not model.problem:
        raise ValueError("a warm solve takes the model's own problem")
    if problem.objective.size == 0:
        return LpSolution(np.zeros(0), np.zeros(problem.rhs.size), 0.0)
    if model is None:
        solver = _new_solver()
        solver.passModel(_highs_model(problem))
    else:
        solver = model.solver
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise LpError(f"LP solver failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    duals = -np.asarray(solution.row_dual, dtype=float)
    # tiny negative multipliers are solver noise
    duals = np.where(np.abs(duals) < 1e-11, 0.0, duals)
    x = np.asarray(solution.col_value, dtype=float)
    value = -solver.getObjectiveValue()
    slack = problem.constraints @ x - problem.rhs
    # relative 1e-9 where that is larger, above 3e5: near 1e19 an ulp is 2048
    size = max(np.abs(problem.lower).max(initial=0), np.abs(problem.rhs).max(initial=0))
    tol = max(_CHECK_TOL, 1e-9 * size)
    if not (
        np.isfinite(value)
        and np.all(x >= problem.lower - tol)
        and np.all(x <= problem.upper + tol)
        and np.all(slack >= -tol)
    ):
        raise LpError("LP solver reported an optimum that violates the problem")
    return LpSolution(x, duals, float(value))
