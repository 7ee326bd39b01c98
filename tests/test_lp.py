import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from planarclust.lp import LpError, LpModel, LpProblem, LpSolution, solve_lp


def test_box_only():
    sol = solve_lp(LpProblem(objective=[-1.0], lower=[-1.0], upper=[0.0]))
    assert sol.x[0] == pytest.approx(-1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_single_constraint_dual():
    sol = solve_lp(
        LpProblem(
            objective=[-1.0],
            lower=[-1.0],
            upper=[0.0],
            constraints=[[1.0]],
            rhs=[-0.5],
        )
    )
    assert sol.x[0] == pytest.approx(-0.5)
    assert sol.objective_value == pytest.approx(0.5)
    assert sol.duals[0] == pytest.approx(1.0)


def test_degenerate_optimum_value_unique():
    sol = solve_lp(
        LpProblem(
            objective=[-1.0, -1.0],
            lower=[-1.0, -1.0],
            upper=[0.0, 0.0],
            constraints=[[1.0, 1.0]],
            rhs=[0.0],
        )
    )
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
    assert sol.x[0] + sol.x[1] == pytest.approx(0.0, abs=1e-9)


def test_infeasible():
    problem = LpProblem(objective=[1.0], lower=[0.0], upper=[1.0], constraints=[[1.0]], rhs=[2.0])
    with pytest.raises(LpError, match="Infeasible"):
        solve_lp(problem)


def test_infinite_upper_bound():
    sol = solve_lp(
        LpProblem(
            objective=[-1.0],
            lower=[0.0],
            upper=[np.inf],
            constraints=[[1.0]],
            rhs=[3.0],
        )
    )
    assert sol.x[0] == pytest.approx(3.0)


def _random_problem(rng, n, m):
    c = rng.normal(size=n)
    lo = rng.uniform(-2, 0, size=n)
    hi = lo + rng.uniform(0.5, 2, size=n)
    mid = (lo + hi) / 2
    a = np.zeros((m, n))
    rhs = np.zeros(m)
    for i in range(m):
        a[i] = rng.normal(size=n)
        rhs[i] = a[i] @ mid - rng.uniform(0, 1)  # feasible at mid
    return LpProblem(objective=c, lower=lo, upper=hi, constraints=a, rhs=rhs)


def test_warm_solves_of_growing_problems_match_cold_solves():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        p = _random_problem(rng, n, int(rng.integers(1, 60)))
        model = LpModel(LpProblem(p.objective, p.lower, p.upper))
        last = 0
        for stop in np.sort(rng.choice(np.arange(p.rhs.size + 1), size=3)):
            model.add_rows(p.constraints[last:stop], p.rhs[last:stop])
            last = stop
            grown = LpProblem(p.objective, p.lower, p.upper, p.constraints[:stop], p.rhs[:stop])
            assert np.array_equal(model.problem.constraints, grown.constraints)
            assert np.array_equal(model.problem.rhs, grown.rhs)
            warm = solve_lp(model.problem, model)
            assert warm.objective_value == pytest.approx(solve_lp(grown).objective_value, abs=1e-9)
            assert np.all(warm.x >= p.lower - 1e-9) and np.all(warm.x <= p.upper + 1e-9)
        # a row that no point of the box meets
        model.add_rows(np.ones((1, n)), [p.upper.sum() + 1.0])
        with pytest.raises(LpError, match="Infeasible"):
            solve_lp(model.problem, model)


def test_warm_solve_refuses_a_problem_that_is_not_the_models():
    rng = np.random.default_rng(8)
    p = _random_problem(rng, 5, 6)
    model = LpModel(p)
    solve_lp(model.problem, model)
    # equal to the model's problem, but another object
    copy = LpProblem(p.objective, p.lower, p.upper, p.constraints, p.rhs)
    with pytest.raises(ValueError):
        solve_lp(copy, model)
    model.add_rows(p.constraints[:1], p.rhs[:1])
    with pytest.raises(ValueError):
        solve_lp(p, model)


def test_unbounded_raises():
    with pytest.raises(LpError):
        solve_lp(LpProblem(objective=[1.0], lower=[0.0], upper=[np.inf]))


@pytest.mark.parametrize("side, value", [("lower", -1e20), ("upper", 1e20), ("rhs", 1e22)])
def test_sides_the_solver_reads_as_infinite_raise(side, value):
    # HiGHS reads any magnitude of 1e20 or more as infinite, which would
    # drop the bound or row; +inf upper bounds stay allowed (above)
    sides = {"objective": [1.0], "lower": [0.0], "upper": [1.0], "constraints": [[1.0]], "rhs": [0.0]}
    sides[side] = [value]
    with pytest.raises(ValueError, match="1e20"):
        LpProblem(**sides)


def _linprog_reference(p):
    """solve_lp through scipy's linprog wrapper, with the same options.

    None where linprog reports an infeasible problem (status 2).
    """
    res = linprog(
        c=-p.objective,
        A_ub=-p.constraints,
        b_ub=-p.rhs,
        bounds=list(zip(p.lower, p.upper)),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    duals = -np.asarray(res.ineqlin.marginals, dtype=float)
    duals = np.where(np.abs(duals) < 1e-11, 0.0, duals)
    return LpSolution(np.asarray(res.x), duals, float(-res.fun))


def test_matches_linprog_reference():
    rng = np.random.default_rng(42)
    infeasible = LpProblem(objective=[1.0], lower=[0.0], upper=[1.0], constraints=[[1.0]], rhs=[2.0])
    problems = [infeasible]
    for k in range(40):
        n = int(rng.integers(2, 50))
        p = _random_problem(rng, n, 0 if k % 4 == 0 else int(rng.integers(1, 100)))
        # some upper bounds infinite; nonpositive costs keep the optimum finite
        inf = rng.random(n) < 0.3
        inf_upper = LpProblem(
            objective=-np.abs(p.objective),
            lower=p.lower,
            upper=np.where(inf, np.inf, p.upper),
            constraints=p.constraints,
            rhs=p.rhs,
        )
        problems += [p, inf_upper]
    for p in problems:
        ref = _linprog_reference(p)
        if ref is None:
            with pytest.raises(LpError):
                solve_lp(p)
            continue
        got = solve_lp(p)
        assert got.objective_value == ref.objective_value
        assert np.array_equal(got.x, ref.x)
        assert np.array_equal(got.duals, ref.duals)


def test_strong_duality_random():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        m = int(rng.integers(0, 100))
        p = _random_problem(rng, n, m)
        sol = solve_lp(p)
        assert np.all(sol.duals >= -1e-9)
        # strong duality: opt = -duals.rhs + box terms of reduced costs,
        # where reduced = c + A^T duals vanishes at interior variables
        reduced = p.objective + p.constraints.T @ sol.duals
        dual_obj = -float(sol.duals @ p.rhs)
        dual_obj += float(np.sum(np.where(reduced > 0, reduced * p.upper, reduced * p.lower)))
        assert dual_obj == pytest.approx(sol.objective_value, abs=1e-7)
        # primal feasibility
        assert np.all(sol.x >= p.lower - 1e-9) and np.all(sol.x <= p.upper + 1e-9)
        for a, r in zip(p.constraints, p.rhs):
            assert a @ sol.x >= r - 1e-8


def _enumerate_vertices(p):
    """Candidate optima: intersections of n active conditions."""
    n = p.objective.shape[0]
    conds = list(zip(p.constraints, p.rhs))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        conds.append((e, p.lower[j]))
        conds.append((-e, -p.upper[j]))
    best = None
    for combo in itertools.combinations(range(len(conds)), n):
        a_mat = np.vstack([conds[i][0] for i in combo])
        rhs = np.array([conds[i][1] for i in combo])
        try:
            x = np.linalg.solve(a_mat, rhs)
        except np.linalg.LinAlgError:
            continue
        ok = np.all(x >= p.lower - 1e-9) and np.all(x <= p.upper + 1e-9)
        ok = ok and all(a @ x >= r - 1e-9 for a, r in zip(p.constraints, p.rhs))
        if ok:
            val = float(p.objective @ x)
            if best is None or val > best:
                best = val
    return best


def test_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 7))
        p = _random_problem(rng, n, m)
        ref = _enumerate_vertices(p)
        sol = solve_lp(p)
        assert ref is not None
        assert sol.objective_value == pytest.approx(ref, abs=1e-7)


def test_extra_constraint_never_increases_optimum():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        p = _random_problem(rng, n, int(rng.integers(0, 10)))
        sol = solve_lp(p)
        a = rng.normal(size=n)
        tightened = LpProblem(
            objective=p.objective,
            lower=p.lower,
            upper=p.upper,
            constraints=np.vstack([p.constraints, a]),
            rhs=np.append(p.rhs, a @ sol.x - 0.1),
        )
        sol2 = solve_lp(tightened)
        assert sol2.objective_value <= sol.objective_value + 1e-8
