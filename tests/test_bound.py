import concurrent.futures
import copy
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from planarclust.bound import (
    CutPool, _cut_rows, _fixed, _seed_lp, certified_bound, lower_bound_value, optimize_lower_bound,
    restricted_lp,
)
from planarclust import bound as bound_module, cut_oracle
from planarclust.cut_oracle import min_cut_2color, scale_to_int, split_into_basic_cuts
from planarclust.decode import best_decode, decode_rounding
from planarclust.instances import GpbLikeWeights, gen_grid, gen_random_planar, UniformWeights
from planarclust.lp import LpModel, solve_lp
from planarclust.oracle import brute_cc, exact_cc_value, full_lp_bound


def test_lower_bound_value():
    assert lower_bound_value([-1, 2, 2], [-1, 2, 2]) == 0.0
    assert lower_bound_value([-1, -1, -1], [0, 0, 0]) == -3.0
    assert lower_bound_value([-1, 2, 2], [0, 2, 2]) == -1.0


def test_omega_violation(triangle):
    # a feasible lambda has no cut below -tol; an infeasible one does
    assert min_cut_2color(triangle, [0.0, 0.0, 0.0])[1] >= -1e-6
    assert min_cut_2color(triangle, [0.5, 1.0, 2.0])[1] >= -1e-6
    cut, value = min_cut_2color(triangle, [-1.0, -1.0, -1.0])
    assert value < -1e-6 and cut.sum() == 2


def test_cut_pool_dedup(triangle):
    pool = CutPool()
    a = np.array([True, True, False])
    assert pool.add(a)
    assert not pool.add(a.copy())
    assert len(pool) == 1


def test_all_positive(triangle):
    res = optimize_lower_bound(triangle, [1.0, 0.5, 2.0])
    assert res.converged
    assert res.bound == 0.0
    assert res.batches == 0 and len(res.pool) == 0
    assert np.array_equal(res.lam, [1.0, 0.5, 2.0])
    # no negative edge, so no seeded row, zeros included
    inst = gen_grid(5, 4, GpbLikeWeights(0.27), 2)
    for theta in (np.abs(inst.theta), np.zeros(inst.graph.edge_count)):
        res = optimize_lower_bound(inst.graph, theta)
        assert (res.converged, res.bound, res.batches, len(res.pool)) == (True, 0.0, 0, 0)


def test_pool_starts_with_the_negative_edge_clustering():
    # the isolating cuts of the clustering by theta >= 0 edges are
    # 2-colorable, so the first LP holds all of them, in split order
    seeds = 0
    for inst in [gen_grid(6, 5, GpbLikeWeights(0.27), s) for s in range(3)] + [
        gen_random_planar(9 + s, 30 + s) for s in range(6)
    ]:
        seeded = split_into_basic_cuts(inst.graph, inst.theta < 0)
        seeds += bool(seeded)
        for max_batches in (0, 1000):
            res = optimize_lower_bound(inst.graph, inst.theta, max_batches=max_batches)
            assert len(res.pool) >= len(seeded)
            assert all(np.array_equal(a, b) for a, b in zip(res.pool, seeded))
    assert seeds >= 6


@settings(max_examples=200)
@given(
    st.one_of(
        st.builds(gen_random_planar, st.integers(3, 10), st.integers(0, 2**32 - 1)),
        st.builds(
            gen_grid, st.integers(2, 5), st.just(2), st.just(GpbLikeWeights(0.27)),
            st.integers(0, 2**32 - 1),
        ),
    )
)
def test_seeded_bound_is_the_full_lp_bound(inst):
    graph, theta = inst.graph, inst.theta
    res = optimize_lower_bound(graph, theta, tol=1e-9)
    assert res.converged
    assert certified_bound(graph, theta, res.lam)[0] == res.bound
    assert res.bound == pytest.approx(full_lp_bound(graph, theta, True), abs=1e-9)


def test_seeded_50x50_grid_converges_in_three_batches():
    # from an empty pool the loop took 7 batches here
    inst = gen_grid(50, 50, GpbLikeWeights(0.27), seed=0)
    res = optimize_lower_bound(inst.graph, inst.theta)
    assert res.converged and res.batches <= 3


def test_triangle_all_negative(triangle):
    res = optimize_lower_bound(triangle, [-1.0, -1.0, -1.0])
    assert res.converged
    assert res.bound == pytest.approx(-3.0, abs=1e-8)
    assert np.allclose(res.lam, 0.0, atol=1e-8)


def test_triangle_tight_at_theta(triangle):
    res = optimize_lower_bound(triangle, [-1.0, 2.0, 2.0])
    assert res.converged
    assert res.bound == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(res.lam, [-1.0, 2.0, 2.0], atol=1e-8)


def test_convergence_certificate_and_feasibility():
    for seed in range(25):
        inst = gen_random_planar(4 + seed % 6, 100 + seed)
        res = optimize_lower_bound(inst.graph, inst.theta)
        assert res.converged
        _, value = min_cut_2color(inst.graph, res.lam)
        assert value >= -1e-6
        # lambda respects its box
        assert np.all(res.lam >= inst.theta - 1e-9)
        assert np.all(res.lam <= np.maximum(inst.theta, 0.0) + 1e-9)
        assert res.bound <= 1e-12
        assert res.bound == pytest.approx(lower_bound_value(inst.theta, res.lam), abs=1e-12)


def test_soundness_against_brute_force():
    for seed in range(40):
        inst = gen_random_planar(4 + seed % 5, 200 + seed)
        res = optimize_lower_bound(inst.graph, inst.theta)
        _, cc = brute_cc(inst.graph, inst.theta)
        assert res.bound <= cc + 1e-6


@given(st.integers(1, 119), st.sampled_from([0.1, 0.5]))
def test_bound_is_sound_at_a_loose_tol(s, tol):
    # at convergence the oracle value may still be as low as -tol, which
    # the bound must count: sum(min(theta - lambda, 0)) alone overshot the
    # optimum on 26 of these instances at tol 0.5
    inst = gen_random_planar(10, s) if s % 2 else gen_grid(4, 4, GpbLikeWeights(0.27), s)
    res = optimize_lower_bound(inst.graph, inst.theta, tol=tol)
    assert res.bound <= exact_cc_value(inst.graph, inst.theta) + 1e-9


def test_matches_full_lp():
    for seed in range(20):
        inst = gen_random_planar(4 + seed % 5, 300 + seed)
        res = optimize_lower_bound(inst.graph, inst.theta, tol=1e-9)
        ref = full_lp_bound(inst.graph, inst.theta, True)
        assert res.bound == pytest.approx(ref, abs=1e-8)


def test_iteration_limit_still_sound():
    for seed in range(10):
        inst = gen_random_planar(8, 400 + seed)
        res = optimize_lower_bound(inst.graph, inst.theta, max_batches=1)
        _, cc = brute_cc(inst.graph, inst.theta)
        assert res.bound <= cc + 1e-9
        if not res.converged:
            assert res.batches <= 1


@pytest.mark.parametrize(
    "kwargs", [{"tol": float("nan")}, {"tol": -1.0}, {"max_batches": -1}]
)
def test_invalid_loop_parameters_raise(kwargs):
    # these used to stop after one batch, unconverged, where the defaults converge
    inst = gen_grid(8, 8, GpbLikeWeights(0.27), 0)
    assert optimize_lower_bound(inst.graph, inst.theta).converged
    with pytest.raises(ValueError):
        optimize_lower_bound(inst.graph, inst.theta, **kwargs)


def test_a_batch_budget_that_is_no_integer_raises():
    # NaN ran the loop without a budget (nan < 0 and batches >= nan are
    # both False); 1.5 and True were taken as budgets
    inst = gen_random_planar(8, 3)
    for bad, shown in ((float("nan"), "nan"), (1.5, "1.5"), (True, "True"), (np.float64(2.0), "2.0")):
        with pytest.raises(ValueError, match=f"^max_batches must be an integer, got {shown}$"):
            optimize_lower_bound(inst.graph, inst.theta, max_batches=bad)
    ref = optimize_lower_bound(inst.graph, inst.theta, max_batches=1)
    res = optimize_lower_bound(inst.graph, inst.theta, max_batches=np.int64(1))
    assert res.bound == ref.bound and res.batches == ref.batches


def test_weights_the_lp_solver_reads_as_infinite_raise():
    # HiGHS reads magnitudes of 1e20 or more as infinite; at 1e22 the box
    # theta <= lambda lost its lower side and the LP came back unbounded
    inst = gen_random_planar(8, 3)
    res = optimize_lower_bound(inst.graph, inst.theta * 1e19)
    assert res.converged
    assert res.bound == pytest.approx(1e19 * optimize_lower_bound(inst.graph, inst.theta).bound)
    with pytest.raises(ValueError, match="1e20"):
        optimize_lower_bound(inst.graph, inst.theta * 1e22)


# weights whose lambdas the oracle rounds up onto its grid: not decimal, or
# too large for a decimal scale with head-room
grid_instances = st.tuples(
    st.builds(gen_random_planar, st.integers(3, 10), st.integers(0, 2**32 - 1)),
    st.sampled_from([np.pi, 1e19]),
)


@given(grid_instances)
def test_grid_bounds_are_sound(case):
    inst, factor = case
    theta = inst.theta * factor
    res = optimize_lower_bound(inst.graph, theta)
    optimum = exact_cc_value(inst.graph, theta)
    energy = best_decode(inst.graph, theta, res, restarts=1).energy
    # float sums of weights near 1e19 differ in their last bits
    slack = 1e-12 * max(1.0, abs(optimum))
    assert res.bound <= optimum + slack and optimum <= energy + slack


@given(grid_instances, st.sampled_from([0, 1000]))
def test_grid_bound_is_recomputed_from_its_lambda(case, max_batches):
    # the bound is what the result's lambda certifies as the oracle solves
    # it, on its grid; a copy of the graph keeps nothing from the loop's
    # calls.  With no batch the loop often returns its start, lambda =
    # max(0, theta).  The lambda itself is the LP's, inside its box
    inst, factor = case
    theta = inst.theta * factor
    res = optimize_lower_bound(inst.graph, theta, max_batches=max_batches)
    assume(scale_to_int(res.lam) is None)
    graph = copy.copy(inst.graph)
    assert certified_bound(graph, theta, res.lam)[0] == res.bound
    slack = 1e-9 * np.maximum(1.0, np.abs(theta))
    assert np.all(res.lam >= theta - slack) and np.all(res.lam <= np.maximum(theta, 0.0) + slack)


@pytest.mark.parametrize("factor", [np.pi / 3, 1.0])
def test_certified_bound_prepares_its_weights_once(monkeypatch, factor):
    # off the decimal grid the oracle solves lambda rounded up, and
    # certified_bound reads the rounded weights from the preparation its
    # oracle call kept; a graph without it prepares them to the same ints
    inst = gen_grid(14, 14, GpbLikeWeights(0.27), seed=0)
    theta = inst.theta * factor
    assert (scale_to_int(theta) is None) == (factor != 1.0)
    lam = np.maximum(theta, 0.0)
    lam[theta < 0] = theta[theta < 0] / 2
    calls = []
    monkeypatch.setattr(
        cut_oracle, "scale_to_int", lambda w: calls.append(w) or scale_to_int(w)
    )
    for _ in range(2):
        graph = copy.copy(inst.graph)
        calls.clear()
        certified, cut, value = certified_bound(graph, theta, lam)
        assert len(calls) == 1
        ints, scale, solved = cut_oracle._prepare_weights(lam, copy.copy(graph))
        again = cut_oracle._prepare_weights(solved, copy.copy(graph))
        assert np.array_equal(again[0], ints) and again[1] == scale
        ref_cut, ref_value = min_cut_2color(copy.copy(graph), solved)
        assert value == ref_value and np.array_equal(cut, ref_cut)
        assert certified == lower_bound_value(theta, solved) + 1.5 * min(0.0, value)


@pytest.mark.parametrize("n, seed", [(8, 3), (8, 5), (10, 1)])
def test_lambda_near_1e19_stays_in_its_box(n, seed):
    # the oracle's grid step is 256 to 1024 here, so a lambda rounded onto
    # it would leave the box that the LP's lambda holds to 1e-9
    inst = gen_random_planar(n, seed)
    theta = inst.theta * 1e19
    res = optimize_lower_bound(inst.graph, theta)
    assert res.converged
    assert np.all(res.lam >= theta - 1e-9) and np.all(res.lam <= np.maximum(theta, 0.0) + 1e-9)


def test_lp_check_scales_with_weights_near_1e19():
    # the LP's post-solve check was absolute: a row missed by 4, below one
    # unit in the last place of its right-hand side near 1.4e19, raised
    # LpError although the same instance solves at scale 1
    inst = gen_random_planar(8, 2722)
    res = optimize_lower_bound(inst.graph, inst.theta * 1e19)
    assert res.converged
    assert res.bound == pytest.approx(1e19 * optimize_lower_bound(inst.graph, inst.theta).bound)


def test_small_grid():
    inst = gen_grid(4, 4, UniformWeights(), 5)
    res = optimize_lower_bound(inst.graph, inst.theta)
    assert res.converged
    assert res.bound <= 1e-12


def _bound_record(res) -> tuple:
    """Every field of a BoundResult, as bytes and scalars."""
    lp = res.final_lp
    return (
        res.lam.tobytes(), repr(res.bound), res.pool.matrix(res.lam.size).tobytes(), res.batches,
        res.converged, res.oracle_calls,
        None if lp is None else (lp.x.tobytes(), lp.duals.tobytes(), repr(lp.objective_value)),
    )


def test_bound_loops_in_threads_match_sequential_runs():
    # each loop's LP model holds its own solver, taken from and given back
    # to one shared list
    insts = [gen_random_planar(12 + s % 9, 300 + s) for s in range(12)]
    insts += [gen_grid(6, 6, GpbLikeWeights(0.27), seed=s) for s in range(4)]
    want = [_bound_record(optimize_lower_bound(i.graph, i.theta)) for i in insts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(optimize_lower_bound, copy.copy(i.graph), i.theta) for i in insts
            ]
            got = [_bound_record(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _replay(graph, theta, max_batches=50):
    """The cutting-plane loop by hand, through one warm LP model from the
    negative-edge clustering's cuts on: yields the pool, the model and its
    solve at the start and after each batch.  The loop itself solves the
    first LP in closed form (`_seed_lp`) and makes its model at the first
    batch, so from the second solve on its lambda may differ from this
    one's; the values agree."""
    pool = CutPool(split_into_basic_cuts(graph, theta < 0))
    model = LpModel(restricted_lp(theta, pool))
    lam = theta.copy()
    for _ in range(max_batches + 1):
        if len(pool):
            lp = solve_lp(model.problem, model)
            lam = theta.copy()
            lam[theta < 0] = lp.x
            yield pool, model, lp
        cut, value = min_cut_2color(graph, lam)
        if value >= -1e-9:
            return
        new = [b for b in split_into_basic_cuts(graph, cut) if pool.add(b)]
        if not new:
            return
        model.add_rows(*_cut_rows(*_fixed(theta), np.vstack(new)))


def test_lp_objective_monotone_across_batches():
    # every added batch tightens a maximization, so the restricted LP value
    # must never increase
    for seed in range(8):
        inst = gen_random_planar(8, 1000 + seed)
        theta = inst.theta
        values = [lower_bound_value(theta, theta)]
        for _, _, lp in _replay(inst.graph, theta):
            lam = theta.copy()
            lam[theta < 0] = lp.x
            values.append(lower_bound_value(theta, lam))
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def _strong_duality_holds(problem, sol) -> bool:
    """LpSolution's strong duality: the value is -duals.rhs plus the box
    terms of the reduced costs objective + A^T duals."""
    reduced = problem.objective + problem.constraints.T @ sol.duals
    box = np.where(reduced > 0, reduced * problem.upper, reduced * problem.lower)
    return -sol.duals @ problem.rhs + box.sum() == pytest.approx(sol.objective_value, abs=1e-9)


@settings(max_examples=150)
@given(
    st.one_of(
        st.builds(gen_random_planar, st.integers(5, 20), st.integers(0, 2**32 - 1)),
        st.builds(
            gen_grid, st.integers(2, 6), st.integers(2, 6), st.just(GpbLikeWeights(0.27)),
            st.integers(0, 2**32 - 1),
        ),
    )
)
def test_warm_solves_match_cold_solves(inst):
    theta = inst.theta
    assume((theta < 0).any())
    for pool, model, sol in _replay(inst.graph, theta):
        problem = restricted_lp(theta, pool)
        warm = model.problem
        assert np.array_equal(warm.constraints, problem.constraints)
        assert np.array_equal(warm.rhs, problem.rhs)
        assert sol.duals.shape == (len(pool),)
        assert sol.objective_value == pytest.approx(solve_lp(problem).objective_value, abs=1e-9)
        assert np.all(sol.x >= problem.lower - 1e-9) and np.all(sol.x <= problem.upper + 1e-9)
        assert np.all(sol.duals >= 0.0)
        assert _strong_duality_holds(problem, sol)


@settings(max_examples=150)
@given(
    st.one_of(
        st.builds(gen_random_planar, st.integers(5, 20), st.integers(0, 2**32 - 1)),
        st.builds(
            gen_grid, st.integers(2, 6), st.integers(2, 6), st.just(GpbLikeWeights(0.27)),
            st.integers(0, 2**32 - 1),
        ),
    )
)
def test_seed_lp_in_closed_form_is_the_solvers_optimum(inst):
    graph, theta = inst.graph, inst.theta
    neg = theta < 0
    pool = CutPool(split_into_basic_cuts(graph, neg))
    assume(len(pool))
    problem = restricted_lp(theta, pool)
    # every seed row holds only negative edges and has right-hand side 0
    assert not np.any(pool.matrix(theta.size) & ~neg) and not problem.rhs.any()
    closed, solved = _seed_lp(theta, neg, pool), solve_lp(problem)
    assert np.array_equal(closed.x, solved.x)
    assert closed.objective_value == pytest.approx(solved.objective_value, abs=1e-9)
    assert closed.duals.shape == (len(pool),) and np.all(closed.duals >= 0.0)
    assert _strong_duality_holds(problem, closed) and _strong_duality_holds(problem, solved)
    # the relaxed indicator is exactly 1 on the seed cuts' edges
    crossing = pool.matrix(theta.size).any(axis=0)
    assert np.array_equal(pool.matrix(theta.size).T @ closed.duals, crossing.astype(float))
    a, b = (decode_rounding(graph, theta, pool, final_lp=lp) for lp in (closed, solved))
    assert np.array_equal(a.partition, b.partition) and a.energy == b.energy


def test_a_run_makes_no_lp_model_until_the_oracle_rejects_the_seed(triangle, monkeypatch):
    made, solves = [], []
    monkeypatch.setattr(bound_module, "LpModel", lambda p: made.append(LpModel(p)) or made[-1])
    monkeypatch.setattr(bound_module, "solve_lp", lambda *a: solves.append(a) or solve_lp(*a))
    # every edge crosses the negative-edge clustering: lambda = 0 is the
    # seed LP's optimum, and the oracle accepts it
    res = optimize_lower_bound(triangle, [-1.0, -1.0, -1.0])
    assert (res.converged, res.batches, res.oracle_calls) == (True, 0, 1)
    assert res.final_lp is not None and np.array_equal(res.final_lp.duals, [0.5, 0.5, 0.5])
    assert made == [] and solves == []
    converged_on_seed = with_batches = 0
    for seed in range(30):
        inst = gen_random_planar(8 + seed % 13, 500 + seed)
        del made[:], solves[:]
        res = optimize_lower_bound(inst.graph, inst.theta)
        assert res.converged
        if res.batches == 0:
            assert made == [] and solves == []
            converged_on_seed += len(res.pool) > 0
        else:
            # one model, over the seed rows and the first batch's, grown in place
            assert len(made) == 1 and len(solves) == res.batches
            assert all(model is made[0] for _, model in solves)
            assert made[0].problem.rhs.size == len(res.pool)
            with_batches += res.batches > 1
    assert converged_on_seed >= 3 and with_batches >= 3
