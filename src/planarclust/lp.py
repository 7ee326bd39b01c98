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
tests keep as the reference.  The model goes in through the binding's
array form of `passModel`, which reads numpy arrays in place: building
a `HighsLp` attribute by attribute and passing that took 22 us for a
desk-scale starting LP (3 rows, 16 columns), the array form 14 us.  It
differs from linprog's only in listing every column as continuous.

HiGHS solvers are reused.  Passing a desk-scale starting LP to a fresh
`_Highs()` and solving it took 220-235 us, on a used solver 105-115 us
(the bound loop's first LPs of 276 desk graphs, process CPU time), so
solvers come from a module-level list of spares, made with their options
set when the list is empty and put back when their user is done; a user
never shares its solver.  `passModel` clears a solver's model, basis and
solution, so a cold `solve_lp` on a used solver (presolve on, as
linprog sets it) is still bit-identical to linprog.

The bound loop's LP only grows.  An `LpModel` holds its HiGHS solver for
its lifetime: `add_rows` appends rows, checking only the new ones, and
`solve_lp(model.problem, model)` re-solves with dual simplex from the
previous optimal basis (Huangfu & Hall 2018), which stays dual feasible
when rows are added.  These warm solves run the same options, except
that presolve is off, and the same post-solve check, and reach the same
optimal value; but on a degenerate LP they may stop at another optimal
vertex, so their x and duals need not equal a cold solve's.  A model's
first rows go in with it: passing a model without rows and appending
them gave the same solves, but a model then cost 128 against 93 us in
the desk-scale bound loop (both with a `HighsLp` built attribute by
attribute).
The binding is private to scipy; this is the only module that uses it.
"""

from __future__ import annotations

import math
import weakref
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
        if not np.isfinite(lo).all():
            raise ValueError("lower bounds must be finite")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        a = np.zeros((0, obj.size)) if self.constraints is None else self.constraints
        b = np.zeros(0) if self.rhs is None else self.rhs
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if b.ndim != 1 or a.shape != (b.size, obj.size):
            raise ValueError("constraints must be a (rows, n) array with one rhs per row")
        sides = np.abs(np.concatenate((lo, hi, b)))
        if ((sides >= 1e20) & (sides < np.inf)).any():
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
_COLWISE, _MINIMIZE = int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize)
# linprog's post-solve check: an "optimal" point that misses its problem by
# more than this is a solver failure
_CHECK_TOL = 10 * np.sqrt(1e-9)


def _unchecked_problem(objective, lower, upper, constraints, rhs) -> LpProblem:
    """An LpProblem of float arrays that already hold its invariants,
    built without `LpProblem.__post_init__`'s checks."""
    problem = object.__new__(LpProblem)
    problem.__dict__.update(
        objective=objective, lower=lower, upper=upper, constraints=constraints, rhs=rhs
    )
    return problem


def _pass_model(solver: highs._Highs, problem: LpProblem) -> None:
    """Pass `solver` the model minimize -objective . x  s.t.  -constraints x
    <= -rhs, as linprog poses it, with every column continuous and the
    matrix column-wise, through the binding's array form of `passModel`."""
    n, m = problem.objective.size, problem.rhs.size
    cols = problem.constraints.T
    col, row = cols.nonzero()  # column-major order: the CSC layout
    status = solver.passModel(
        n, m, row.size, _COLWISE, _MINIMIZE, 0.0,
        -problem.objective, problem.lower, problem.upper, np.full(m, -np.inf), -problem.rhs,
        col.searchsorted(np.arange(n)).astype(np.int32), row.astype(np.int32),
        -cols[col, row], np.zeros(n, dtype=np.int32),
    )
    if status == highs.HighsStatus.kError:
        raise LpError("LP solver rejected the model")


# solvers with `_HIGHS_OPTS` set that no one uses.  No cap: the list never
# holds more solvers than were once in use at the same time
_SPARES: list[highs._Highs] = []


def _take_solver() -> highs._Highs:
    """A spare solver, or a new one; give it back with `_SPARES.append`."""
    try:
        return _SPARES.pop()  # atomic: two threads never get the same one
    except IndexError:
        solver = highs._Highs()
        for name, value in _HIGHS_OPTS.items():
            solver.setOptionValue(name, value)
        return solver


def _size(problem: LpProblem) -> float:
    """The largest magnitude of a lower bound or right-hand side."""
    return max(np.abs(problem.lower).max(initial=0), np.abs(problem.rhs).max(initial=0))


def _grown(buffer: np.ndarray, rows: int, capacity: int) -> np.ndarray:
    """A buffer of `capacity` rows that starts with `buffer`'s first `rows`."""
    out = np.empty((capacity, *buffer.shape[1:]))
    out[:rows] = buffer[:rows]
    return out


class LpModel:
    """One HiGHS model of an LP whose rows only grow.

    The constructor passes `problem` to a solver that the model holds until
    it is collected, then gives back to the spares.  `add_rows` appends
    rows to HiGHS and, in place, to buffers whose capacity doubles;
    `self.problem` is then a new LpProblem over views of the rows so far.
    `solve_lp(model.problem, model)` re-solves from the last optimal basis.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.solver = solver = _take_solver()
        weakref.finalize(self, _SPARES.append, solver)
        # with presolve on, the warm solves of the bound loop's desk-scale
        # LPs took 0.27-0.28 ms each, without it 0.20-0.22 ms (three runs
        # each over 1000 graphs, process CPU time, one core of an x86-64 host)
        solver.setOptionValue("presolve", "off")
        _pass_model(solver, problem)
        rows, n = problem.constraints.shape
        self._a = np.empty((max(2 * rows, 8), n))
        self._b = np.empty(self._a.shape[0])
        self._a[:rows], self._b[:rows] = problem.constraints, problem.rhs
        self._size = _size(problem)

    def add_rows(self, constraints, rhs) -> None:
        """Append the rows `constraints x >= rhs`.

        Checks only the new rows: ValueError, and the model unchanged, unless
        they form a (rows, n) array with one finite rhs per row, each below
        1e20 in magnitude.
        """
        p = self.problem
        a, b = np.asarray(constraints, dtype=float), np.asarray(rhs, dtype=float)
        if b.ndim != 1 or a.shape != (b.size, p.objective.size):
            raise ValueError("constraints must be a (rows, n) array with one rhs per row")
        size = np.abs(b).max(initial=0)
        if not size < 1e20:  # NaN fails this too
            raise ValueError("right-hand sides must be finite and below 1e20 in magnitude")
        # -a x <= -b, as `_pass_model` poses the rows
        row, col = a.nonzero()  # row-major order: the CSR layout
        starts = row.searchsorted(np.arange(b.size)).astype(np.int32)
        status = self.solver.addRows(
            b.size, np.full(b.size, -np.inf), -b, row.size, starts, col.astype(np.int32), -a[row, col]
        )
        if status == highs.HighsStatus.kError:
            raise LpError("LP solver rejected the new rows")
        old = p.rhs.size
        stop = old + b.size
        if stop > self._b.size:
            capacity = max(2 * self._b.size, stop)
            self._a, self._b = _grown(self._a, old, capacity), _grown(self._b, old, capacity)
        self._a[old:stop], self._b[old:stop] = a, b
        self._size = max(self._size, size)
        self.problem = _unchecked_problem(
            p.objective, p.lower, p.upper, self._a[:stop], self._b[:stop]
        )


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
    if model is not None:
        return _run(model.solver, problem, model._size)
    solver = _take_solver()
    try:
        solver.setOptionValue("presolve", "on")
        _pass_model(solver, problem)
        return _run(solver, problem, _size(problem))
    finally:
        _SPARES.append(solver)


def _run(solver: highs._Highs, problem: LpProblem, size: float) -> LpSolution:
    """Run `solver` on its model of `problem`, whose `_size` is `size`; read
    and check the optimum."""
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise LpError(f"LP solver failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    duals = np.negative(solution.row_dual)
    # tiny negative multipliers are solver noise
    duals = np.where(np.abs(duals) < 1e-11, 0.0, duals)
    x = np.asarray(solution.col_value, dtype=float)
    value = -solver.getObjectiveValue()
    # relative 1e-9 where that is larger, above 3e5: near 1e19 an ulp is 2048
    tol = max(_CHECK_TOL, 1e-9 * size)
    if not (
        math.isfinite(value)
        and (x >= problem.lower - tol).all()
        and (x <= problem.upper + tol).all()
        and (problem.constraints @ x - problem.rhs).min(initial=np.inf) >= -tol
    ):
        raise LpError("LP solver reported an optimum that violates the problem")
    return LpSolution(x, duals, float(value))
