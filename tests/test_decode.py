import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planarclust import bound as bound_module, decode as decode_module
from planarclust.bound import (
    CutPool, _cut_rows, lower_bound_value, optimize_lower_bound, restricted_lp,
)
from planarclust.cut_oracle import min_cut_forced
from planarclust.decode import CERTIFICATE_TOL, best_decode, decode_recursive, decode_rounding
from planarclust.graph import cut_energy, cut_from_partition, partition_from_cut
from planarclust.instances import GpbLikeWeights, gen_grid, gen_random_planar, UniformWeights
from planarclust.lp import LpError, LpModel, solve_lp
from planarclust.oracle import all_bipartition_cuts, brute_cc, exact_cc_value, full_lp_bound

from conftest import embedded
from multicuts import is_valid_multicut


def test_recursive_no_negative_edges(triangle):
    theta = [1.0, 2.0, 0.5]
    res = decode_recursive(triangle, theta, theta, bound=full_lp_bound(triangle, theta, True))
    assert res.energy == 0.0
    assert res.partition.max() == 0
    assert res.certificate


def test_recursive_triangle(triangle):
    theta = [-1.0, -1.0, -1.0]
    bound = full_lp_bound(triangle, theta, True)
    assert bound == pytest.approx(-3.0)
    res = decode_recursive(triangle, theta, [0.0, 0.0, 0.0], bound=bound)
    assert res.energy == pytest.approx(-3.0)
    assert res.partition.max() == 2
    assert res.certificate


def test_recursive_tight_zero(triangle):
    theta = [-1.0, 2.0, 2.0]
    res = decode_recursive(triangle, theta, theta, bound=full_lp_bound(triangle, theta, True))
    assert res.energy == 0.0
    assert res.partition.max() == 0
    assert res.certificate


def test_rounding_empty_pool(triangle):
    res = decode_rounding(triangle, [-1.0, -1.0, -1.0], CutPool(), bound=-3.0)
    assert res.energy == 0.0
    assert res.method == "rounding"
    assert not res.certificate


def test_rounding_triangle_isolating_cuts(triangle):
    pool = CutPool(
        [
            np.array([True, False, True]),  # isolate vertex 0 (e0=(0,1), e2=(0,2))
            np.array([True, True, False]),  # isolate vertex 1
            np.array([False, True, True]),  # isolate vertex 2
        ]
    )
    theta = [-1.0, -1.0, -1.0]
    res = decode_rounding(triangle, theta, pool, bound=full_lp_bound(triangle, theta, True))
    assert res.energy == pytest.approx(-3.0)
    assert res.partition.max() == 2
    assert res.certificate


def test_rounding_rejects_pooled_cuts_of_another_length():
    # a 3-long cut on a 2-edge path used to raise numpy's broadcasting message
    path = embedded(3, [(0, 1), (1, 2)], [(0, 0), (1, 0), (2, 0)])
    pool = CutPool([np.ones(3, dtype=bool)])
    with pytest.raises(ValueError, match="pooled cuts must have one entry per edge"):
        decode_rounding(path, [-1.0, 1.0], pool)


def test_no_certificate_from_an_empty_pool():
    # the one-cluster clustering, energy 0, against an optimum of -13.96
    inst = gen_grid(6, 6, GpbLikeWeights(0.27), seed=3)
    res = decode_rounding(inst.graph, inst.theta, CutPool())
    assert res.energy == 0.0 and exact_cc_value(inst.graph, inst.theta) < -13.0
    assert not res.certificate


@pytest.mark.parametrize("max_batches", [0, 1])
def test_no_certificate_from_a_cut_short_run_without_its_bound(max_batches):
    # cut short, lambda is infeasible and the pool incomplete: neither
    # sum(min(theta - lambda, 0)) nor the restricted LP's value is a bound.
    # The seeded pool's rounding misses this instance's optimum by 0.70 at
    # both budgets
    inst = gen_random_planar(10, 57)
    optimum = exact_cc_value(inst.graph, inst.theta)
    br = optimize_lower_bound(inst.graph, inst.theta, max_batches=max_batches)
    assert not br.converged and br.bound < optimum
    rounded = decode_rounding(inst.graph, inst.theta, br.pool)
    assert rounded.energy > optimum + 0.1
    assert not rounded.certificate
    assert not decode_recursive(inst.graph, inst.theta, br.lam).certificate


# small enough for exact_cc_value to take well under a second
small_instances = st.one_of(
    st.builds(gen_random_planar, st.integers(3, 10), st.integers(0, 2**32 - 1)),
    st.builds(
        gen_grid, st.integers(2, 4), st.integers(2, 4), st.just(GpbLikeWeights(0.27)),
        st.integers(0, 2**32 - 1),
    ),
)


@settings(max_examples=400)
@given(small_instances, st.sampled_from([0, 1, 2, 1000]))
def test_certificates_are_sound_at_every_batch_budget(inst, max_batches):
    graph, theta, tol = inst.graph, inst.theta, 1e-6
    optimum = exact_cc_value(graph, theta)
    br = optimize_lower_bound(graph, theta, tol=tol, max_batches=max_batches)
    assert br.bound <= optimum + 1.5 * tol
    for res in (
        best_decode(graph, theta, br),
        decode_rounding(graph, theta, br.pool, bound=br.bound, final_lp=br.final_lp),
        decode_recursive(graph, theta, br.lam, bound=br.bound),
    ):
        assert not res.certificate or res.energy <= optimum + CERTIFICATE_TOL + 1.5 * tol
    # without a bound, neither decoder certifies
    assert not decode_rounding(graph, theta, br.pool, final_lp=br.final_lp).certificate
    assert not decode_recursive(graph, theta, br.lam).certificate


def test_infeasible_restricted_lp_raises_lp_error(triangle, monkeypatch):
    # every pooled cut becomes the row x0 + x1 + x2 >= 1, which no lambda in
    # the box [-1, 0]^3 meets: the real solver finds no feasible point, on
    # the bound loop's rows appended to its warm model and on the rounding
    # decoder's restricted_lp alike
    def infeasible(theta, cuts):
        return np.ones((len(cuts), 3)), np.ones(len(cuts))

    monkeypatch.setattr(bound_module, "_cut_rows", infeasible)
    theta = [-1.0, -1.0, -1.0]
    with pytest.raises(LpError):
        optimize_lower_bound(triangle, theta)
    with pytest.raises(LpError):
        decode_rounding(triangle, theta, CutPool([np.array([True, True, False])]))


def test_rounding_positive_cut_unused(triangle):
    pool = CutPool([np.array([True, True, False])])
    res = decode_rounding(triangle, [1.0, 2.0, 0.5], pool, bound=0.0)
    assert res.energy == 0.0
    assert res.partition.max() == 0


def test_best_decode_examples(triangle, four_cycle):
    theta = np.array([-1.0, -1.0, -1.0])
    br = optimize_lower_bound(triangle, theta)
    res = best_decode(triangle, theta, br)
    assert res.energy == pytest.approx(-3.0)
    assert res.certificate

    theta = np.array([0.3, 0.7, 0.2])
    br = optimize_lower_bound(triangle, theta)
    res = best_decode(triangle, theta, br)
    assert res.energy == 0.0 and res.certificate

    theta = np.array([-1.0, 1.0, 1.0, -1.0])
    br = optimize_lower_bound(four_cycle, theta)
    res = best_decode(four_cycle, theta, br)
    _, cc = brute_cc(four_cycle, theta)
    assert cc == -2.0
    assert res.energy == pytest.approx(cc)
    assert res.certificate


def test_sandwich_on_random_instances():
    for seed in range(30):
        inst = gen_random_planar(4 + seed % 6, 500 + seed)
        br = optimize_lower_bound(inst.graph, inst.theta)
        res = best_decode(inst.graph, inst.theta, br, restarts=10, seed=seed)
        _, cc = brute_cc(inst.graph, inst.theta)
        assert br.bound <= cc + 1e-6
        assert res.energy >= cc - 1e-9
        assert res.energy >= br.bound - 1e-6
        # the reported energy must belong to the reported partition
        x = cut_from_partition(inst.graph, res.partition)
        assert is_valid_multicut(inst.graph, x)
        assert cut_energy(inst.graph, inst.theta, x) == pytest.approx(res.energy)


def test_sandwich_on_grids():
    for seed in range(5):
        inst = gen_grid(3, 3, UniformWeights(), 600 + seed)
        br = optimize_lower_bound(inst.graph, inst.theta)
        res = best_decode(inst.graph, inst.theta, br, seed=seed)
        _, cc = brute_cc(inst.graph, inst.theta)
        assert br.bound <= cc + 1e-6 <= res.energy + 2e-6


def test_rounding_with_complete_pool_reaches_optimum():
    hits = 0
    for seed in range(25):
        inst = gen_random_planar(4 + seed % 3, 700 + seed)
        pool = CutPool(all_bipartition_cuts(inst.graph))
        _, cc = brute_cc(inst.graph, inst.theta)
        lp = full_lp_bound(inst.graph, inst.theta, True)
        if abs(lp - cc) > 1e-8:
            continue  # bound not tight; rounding makes no promise
        res = decode_rounding(inst.graph, inst.theta, pool, bound=lp)
        assert res.energy == pytest.approx(cc, abs=1e-8)
        hits += 1
    assert hits >= 15


@pytest.mark.parametrize("max_batches", [1000, 1])
def test_rounding_multipliers_solve_the_dual(max_batches):
    # the bound LP's cut multipliers alpha solve the rounding decoder's dual:
    # min theta.z - sum_neg theta_e * max(z_e - 1, 0) over z = C^T alpha
    pools = certified = cut_short = 0
    # the last instance has an integrality gap, so rounding cannot certify it.
    # The seeded pool lets 32 of the first 40 converge within one batch; with
    # 50, 17 runs stay cut short
    instances = [gen_random_planar(8 + seed % 13, 1100 + seed) for seed in range(50)]
    for inst in instances + [gen_random_planar(6, 4)]:
        theta = inst.theta
        br = optimize_lower_bound(inst.graph, theta, max_batches=max_batches)
        if not len(br.pool):
            continue
        pools += 1
        cut_short += not br.converged
        sol = solve_lp(restricted_lp(theta, br.pool))
        neg = theta < 0
        lam = theta.copy()
        lam[neg] = sol.x
        alpha = sol.duals
        assert alpha.shape == (len(br.pool),)
        assert np.all(alpha >= -1e-9)
        z = br.pool.matrix(theta.size).T @ alpha
        dual = theta @ z - theta[neg] @ np.maximum(z[neg] - 1.0, 0.0)
        assert dual == pytest.approx(lower_bound_value(theta, lam), abs=1e-9)
        if br.converged:
            assert lower_bound_value(theta, lam) == pytest.approx(br.bound, abs=1e-9)
            res = decode_rounding(inst.graph, theta, br.pool, bound=br.bound)
            assert res.certificate == (res.energy - br.bound <= CERTIFICATE_TOL)
            certified += res.certificate
    assert pools >= 30
    if max_batches == 1:
        assert cut_short >= 10
    else:
        assert 20 <= certified < pools


def test_rows_of_cuts_without_negative_edges_change_no_rounding():
    # the isolating cut of a vertex whose edges all have theta >= 0 gives an
    # empty row: it always holds, its multiplier is 0, and the rounding
    # decoder reads the same z from the warm model and from a cold solve
    checked = 0
    for seed in range(40):
        inst = gen_random_planar(8 + seed % 13, 1100 + seed)
        g, theta = inst.graph, inst.theta
        br = optimize_lower_bound(g, theta)
        if not len(br.pool):
            continue
        pool = CutPool(br.pool)
        model = LpModel(restricted_lp(theta, pool))
        warm = solve_lp(model.problem, model)
        cold = decode_rounding(g, theta, pool, bound=br.bound)
        incident = [(g.tail == v) | (g.head == v) for v in range(g.vertex_count)]
        extra = [cut for cut in incident if np.all(theta[cut] >= 0) and pool.add(cut)]
        if not extra:
            continue
        model.add_rows(*_cut_rows(theta, np.vstack(extra)))
        assert not model.problem.constraints[-len(extra) :].any()
        extended = solve_lp(model.problem, model)
        assert extended.duals.shape == (len(pool),)
        assert np.all(extended.duals[-len(extra) :] == 0.0)
        cold_duals = solve_lp(restricted_lp(theta, pool)).duals
        assert np.all(cold_duals[-len(extra) :] == 0.0)
        before = decode_rounding(g, theta, br.pool, bound=br.bound, final_lp=warm)
        for res, ref in (
            (decode_rounding(g, theta, pool, bound=br.bound, final_lp=extended), before),
            (decode_rounding(g, theta, pool, bound=br.bound), cold),
        ):
            assert np.array_equal(res.partition, ref.partition)
            assert res.energy == ref.energy and res.certificate == ref.certificate
        checked += 1
    assert checked >= 20


def test_known_integrality_gap_instance():
    # this instance's LP bound is strictly below the optimum, so no decode
    # can certify; the sandwich must still hold and the gap must be honest
    inst = gen_random_planar(6, 4)
    br = optimize_lower_bound(inst.graph, inst.theta)
    _, cc = brute_cc(inst.graph, inst.theta)
    assert br.converged
    assert br.bound == pytest.approx(full_lp_bound(inst.graph, inst.theta, True), abs=1e-8)
    assert cc - br.bound > 0.05
    res = best_decode(inst.graph, inst.theta, br, restarts=10)
    assert not res.certificate
    assert res.energy >= cc - 1e-9
    assert res.energy == pytest.approx(cc, abs=1e-6)  # decoders still find the optimum


def test_recursive_deterministic_given_seed():
    inst = gen_random_planar(8, 900)
    br = optimize_lower_bound(inst.graph, inst.theta)
    a = decode_recursive(inst.graph, inst.theta, br.lam, seed=1, restart=2)
    b = decode_recursive(inst.graph, inst.theta, br.lam, seed=1, restart=2)
    assert np.array_equal(a.partition, b.partition)
    assert a.energy == b.energy
    c = decode_recursive(inst.graph, inst.theta, br.lam, seed=2, restart=0)
    assert c.energy <= 0.0


def test_recursive_forces_only_uncut_edges(monkeypatch):
    # the pass walks its seeded order of must-cut edges and forces an edge
    # only when the partial clustering leaves it uncut; a forced cut is
    # kept when it does not raise the energy
    calls = []

    def counted(graph, lam, e):
        x, value = min_cut_forced(graph, lam, e)
        calls.append((e, x))
        return x, value

    monkeypatch.setattr(decode_module, "min_cut_forced", counted)
    visited = made = 0
    for seed in range(6):
        inst = gen_grid(6, 6, GpbLikeWeights(0.27), seed)
        g, theta = inst.graph, inst.theta
        br = optimize_lower_bound(g, theta)
        calls.clear()
        res = decode_recursive(g, theta, br.lam, seed=seed, restart=1, bound=br.bound)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
        order = rng.permutation(np.flatnonzero(theta - br.lam < 0.0))
        s, energy, forced = np.zeros(g.edge_count, dtype=bool), 0.0, iter(calls)
        for e in order:
            if s[e]:
                continue
            called, x = next(forced)
            assert called == e
            s2 = s | x
            e2 = cut_energy(g, theta, cut_from_partition(g, partition_from_cut(g, s2)))
            if e2 <= energy:
                s, energy = s2, e2
        assert next(forced, None) is None
        assert np.array_equal(res.partition, partition_from_cut(g, s))
        assert res.energy == pytest.approx(energy)
        visited += order.size
        made += len(calls)
    # most must-cut edges are already cut when their turn comes
    assert 0 < 2 * made < visited


@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 1000]))
def test_recursive_partition_is_a_clustering_above_the_optimum(n, seed, max_batches):
    inst = gen_random_planar(n, seed)
    g, theta = inst.graph, inst.theta
    _, optimum = brute_cc(g, theta)
    br = optimize_lower_bound(g, theta, max_batches=max_batches)
    res = decode_recursive(g, theta, br.lam, seed=seed % 7, bound=br.bound)
    x = cut_from_partition(g, res.partition)
    assert is_valid_multicut(g, x)
    assert res.energy == pytest.approx(cut_energy(g, theta, x))
    assert res.energy >= optimum - 1e-9
    assert res.certificate == (res.energy - br.bound <= CERTIFICATE_TOL)


def _counting_solve_lp(monkeypatch):
    calls = []

    def counted(problem):
        calls.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(decode_module, "solve_lp", counted)
    return calls


def test_rounding_reuses_the_converged_lp(monkeypatch):
    calls = _counting_solve_lp(monkeypatch)
    reused = 0
    for seed in range(40):
        inst = gen_random_planar(8 + seed % 13, 1200 + seed)
        theta = inst.theta
        br = optimize_lower_bound(inst.graph, theta)
        assert br.converged
        if not len(br.pool) or not (theta < 0).any():
            assert br.final_lp is None
            continue
        assert br.final_lp.duals.shape == (len(br.pool),)
        n_calls = len(calls)
        res = decode_rounding(inst.graph, theta, br.pool, bound=br.bound, final_lp=br.final_lp)
        assert len(calls) == n_calls
        ref = decode_rounding(inst.graph, theta, br.pool, bound=br.bound)
        assert len(calls) == n_calls + 1
        assert np.array_equal(res.partition, ref.partition)
        assert res.energy == ref.energy
        assert res.certificate == ref.certificate
        reused += 1
    assert reused >= 30


def test_rounding_resolves_without_a_current_lp(monkeypatch):
    calls = _counting_solve_lp(monkeypatch)
    # cut short: no final LP on the result, so best_decode solves one
    inst = next(
        inst
        for inst in (gen_random_planar(12, 1300 + seed) for seed in range(20))
        if not optimize_lower_bound(inst.graph, inst.theta, max_batches=1).converged
    )
    br = optimize_lower_bound(inst.graph, inst.theta, max_batches=1)
    assert br.final_lp is None
    best_decode(inst.graph, inst.theta, br, restarts=1)
    assert len(calls) == 1

    # converged, then the pool grows: the stored LP is stale and is not used
    br = optimize_lower_bound(inst.graph, inst.theta)
    assert br.converged and br.final_lp is not None
    best_decode(inst.graph, inst.theta, br, restarts=1)
    assert len(calls) == 1
    g = inst.graph
    # the isolating cut of some vertex is new to the pool
    assert any(br.pool.add((g.tail == v) | (g.head == v)) for v in range(g.vertex_count))
    res = decode_rounding(inst.graph, inst.theta, br.pool, final_lp=br.final_lp)
    assert len(calls) == 2
    ref = decode_rounding(inst.graph, inst.theta, br.pool)
    assert np.array_equal(res.partition, ref.partition) and res.energy == ref.energy


def test_recursive_pass_certifies_on_weights_off_the_decimal_grid():
    # the oracle solves these lambdas rounded up onto its grid, but the
    # decoder reads the LP's lambda: no edge with theta >= 0 is must-cut,
    # and one pass certifies
    inst = gen_grid(14, 14, GpbLikeWeights(0.27), 0)
    theta = inst.theta * (np.pi / 3)
    br = optimize_lower_bound(inst.graph, theta)
    must_cut = theta - br.lam < 0
    assert not np.any(must_cut & (theta >= 0))
    assert decode_recursive(inst.graph, theta, br.lam, bound=br.bound).certificate
