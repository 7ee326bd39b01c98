import gc
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from planarclust import lp
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


def _same(a: LpSolution, b: LpSolution) -> bool:
    """Bit for bit the same solution."""
    return (
        np.array_equal(a.x, b.x) and np.array_equal(a.duals, b.duals)
        and np.float64(a.objective_value).tobytes() == np.float64(b.objective_value).tobytes()
    )


def _growth(p, stops):
    """An LpModel of p without rows, then one step per stop: append p's rows
    up to it and solve warm; each step yields its solution."""
    model = LpModel(LpProblem(p.objective, p.lower, p.upper))
    last = 0
    for stop in stops:
        model.add_rows(p.constraints[last:stop], p.rhs[last:stop])
        last = stop
        yield solve_lp(model.problem, model)


def test_interleaved_models_solve_as_they_do_alone():
    # two live models never share a solver, so neither sees the other's rows
    # or basis
    rng = np.random.default_rng(11)
    for _ in range(10):
        cases = []
        for _ in range(2):
            p = _random_problem(rng, int(rng.integers(2, 20)), int(rng.integers(4, 40)))
            cases.append((p, np.sort(rng.choice(np.arange(1, p.rhs.size + 1), size=4))))
        alone = [list(_growth(p, stops)) for p, stops in cases]
        first, second = (_growth(p, stops) for p, stops in cases)
        for want_first, want_second in zip(*alone):
            assert _same(next(first), want_first)
            assert _same(next(second), want_second)


def test_models_hold_their_own_solver_until_collected():
    p = _random_problem(np.random.default_rng(12), 4, 5)
    a, b = LpModel(p), LpModel(p)
    assert a.solver is not b.solver
    assert all(s is not a.solver and s is not b.solver for s in lp._SPARES)
    solver = a.solver
    del a
    gc.collect()
    assert sum(s is solver for s in lp._SPARES) == 1
    assert all(s is not b.solver for s in lp._SPARES)


def _fail(problem):
    with pytest.raises(LpError):
        solve_lp(problem)


def _warm_model(problem):
    # a model's solver comes back to the spares with presolve off
    model = LpModel(problem)
    solve_lp(model.problem, model)


def test_cold_solve_on_a_used_solver_matches_linprog():
    # a solver given back after an infeasible or unbounded run, or by a
    # model, must still solve the next problem from scratch as linprog does
    rng = np.random.default_rng(13)
    infeasible = LpProblem(objective=[1.0], lower=[0.0], upper=[1.0], constraints=[[1.0]], rhs=[2.0])
    unbounded = LpProblem(objective=[1.0], lower=[0.0], upper=[np.inf])
    for _ in range(10):
        p = _random_problem(rng, int(rng.integers(2, 30)), int(rng.integers(1, 60)))
        before = [
            lambda: _fail(infeasible), lambda: _fail(unbounded),
            lambda: _warm_model(_random_problem(rng, 5, 8)),
        ]
        for use in before:
            use()
            gc.collect()
            # the solver just given back is the one the next cold solve takes
            spare = lp._SPARES[-1]
            got = solve_lp(p)
            assert lp._SPARES[-1] is spare
            assert _same(got, _linprog_reference(p))


@pytest.mark.parametrize(
    "rows, rhs, match",
    [
        (np.ones((2, 3)), [0.0], "one rhs per row"),
        (np.ones((1, 4)), [0.0], "one rhs per row"),
        (np.ones(3), [0.0], "one rhs per row"),
        (np.ones((1, 3)), [[0.0]], "one rhs per row"),
        (np.ones((1, 3)), [1e20], "1e20"),
        (np.ones((2, 3)), [0.0, -1e21], "1e20"),
        (np.ones((1, 3)), [np.inf], "finite"),
        (np.ones((1, 3)), [-np.inf], "finite"),
        (np.ones((1, 3)), [np.nan], "finite"),
    ],
)
def test_add_rows_rejects_bad_rows_and_keeps_the_model(rows, rhs, match):
    p = _random_problem(np.random.default_rng(14), 3, 6)
    model, fresh = LpModel(p), LpModel(p)
    before = model.problem
    with pytest.raises(ValueError, match=match):
        model.add_rows(rows, rhs)
    assert model.problem is before and model.solver.getNumRow() == p.rhs.size
    assert _same(solve_lp(model.problem, model), solve_lp(fresh.problem, fresh))
    model.add_rows(p.constraints[:2], p.rhs[:2])
    fresh.add_rows(p.constraints[:2], p.rhs[:2])
    assert _same(solve_lp(model.problem, model), solve_lp(fresh.problem, fresh))


def test_add_rows_keeps_earlier_problems():
    # rows go into buffers that grow in place: a problem read before an
    # append keeps its rows, also when the buffers are reallocated
    p = _random_problem(np.random.default_rng(15), 5, 40)
    model = LpModel(LpProblem(p.objective, p.lower, p.upper, p.constraints[:1], p.rhs[:1]))
    problems = [model.problem]
    stops = [1, 2, 5, 9, 17, 30, 40]
    for start, stop in zip(stops, stops[1:]):
        model.add_rows(p.constraints[start:stop], p.rhs[start:stop])
        problems.append(model.problem)
    for q in problems:
        rows = q.rhs.size
        assert np.array_equal(q.constraints, p.constraints[:rows]) and np.array_equal(q.rhs, p.rhs[:rows])


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
