import concurrent.futures
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from planarclust import cut_oracle
from planarclust.bound import optimize_lower_bound
from planarclust.cut_oracle import (
    OracleError,
    min_cut_2color,
    min_cut_forced,
    scale_to_int,
    split_into_basic_cuts,
)
from planarclust.graph import build_graph, cut_from_partition, partition_from_cut
from planarclust.instances import GpbLikeWeights, gen_grid, gen_random_planar
from planarclust.matching import _DenseBlossom, match_dense
from planarclust.oracle import brute_cc2

from conftest import brute_force_min_perfect, edge_masks, embedded, planar_graphs
from gadget import expand_dual, matching_for_cut, min_cut_2color_via_gadget, min_weight_perfect_matching
from multicuts import is_valid_multicut


def test_all_positive_gives_empty_cut(triangle):
    cut, val = min_cut_2color(triangle, [0.5, 2.0, 1.0])
    assert val == 0.0
    assert not cut.any()


def test_triangle_all_negative(triangle):
    cut, val = min_cut_2color(triangle, [-1.0, -1.0, -1.0])
    assert val == -2.0
    assert cut.sum() == 2


def test_triangle_one_negative(triangle):
    cut, val = min_cut_2color(triangle, [-1.0, 2.0, 2.0])
    assert val == 0.0
    assert not cut.any()


def test_four_cycle(four_cycle):
    cut, val = min_cut_2color(four_cycle, [-1.0, 1.0, 1.0, -1.0])
    assert val == -2.0
    assert cut.tolist() == [True, False, False, True]


def test_bridges():
    # single edge: cutting the bridge isolates one endpoint
    g = embedded(2, [(0, 1)], [(0, 0), (1, 0)])
    cut, val = min_cut_2color(g, [-5.0])
    assert val == -5.0 and cut.all()
    # tree: every edge subset is a valid cut
    g = embedded(4, [(0, 1), (0, 2), (0, 3)], [(0, 0), (1, 0), (-0.5, 0.9), (-0.5, -0.9)])
    cut, val = min_cut_2color(g, [-1.0, 2.0, -3.0])
    assert val == -4.0
    assert cut.tolist() == [True, False, True]


def test_forced_trivial(triangle):
    cut, val = min_cut_forced(triangle, [0.0, 0.0, 0.0], 0)
    assert val == 0.0 and cut[0]
    cut, val = min_cut_forced(triangle, [1.0, 1.0, 1.0], 0)
    assert val == 2.0 and cut[0]


def test_forced_four_cycle(four_cycle):
    cut, val = min_cut_forced(four_cycle, [-1.0, 1.0, 1.0, -1.0], 1)
    assert val == 0.0 and cut[1]


def test_forced_consistency_random():
    # factor pi makes the weights non-decimal: they are rounded up to the grid
    rng = np.random.default_rng(5)
    for seed in range(25):
        inst = gen_random_planar(int(rng.integers(4, 9)), seed)
        for factor in (1.0, np.pi):
            theta = inst.theta * factor
            _, base = min_cut_2color(inst.graph, theta)
            for e in range(inst.graph.edge_count):
                cut, val = min_cut_forced(inst.graph, theta, e)
                assert cut[e]
                assert val >= base - 1e-9
                assert np.dot(theta, cut) == pytest.approx(val, abs=1e-9)
                assert is_valid_multicut(inst.graph, cut)


def test_forced_missing_edge_raises(triangle, monkeypatch):
    def no_cut(graph, w):
        return np.zeros(graph.edge_count, dtype=bool), 0

    monkeypatch.setattr(cut_oracle, "_solve_even_subgraph", no_cut)
    with pytest.raises(OracleError):
        min_cut_forced(triangle, [1.0, 1.0, 1.0], 0)


@pytest.mark.parametrize(
    "e", [2.0, 2.5, True, np.True_, "1"], ids=["float", "fraction", "bool", "numpy-bool", "str"]
)
def test_forced_edge_id_must_be_an_integer(triangle, e):
    # a float edge id raised IndexError, and a bool indexed w as a mask:
    # every weight was lowered and the call ended in numpy's truth-value error
    with pytest.raises(ValueError, match="edge id must be an integer"):
        min_cut_forced(triangle, [1.0, 1.0, 1.0], e)
    assert min_cut_forced(triangle, [1.0, 1.0, 1.0], np.int64(2))[0][2]


def test_oracle_matches_brute_force():
    # factor pi makes the weights non-decimal: they are rounded up to the grid
    for seed in range(150):
        n = 4 + seed % 7
        inst = gen_random_planar(n, 1000 + seed)
        _, ref = brute_cc2(inst.graph, inst.theta)
        for factor in (1.0, np.pi):
            theta = inst.theta * factor
            assert (scale_to_int(theta) is None) == (factor == np.pi and inst.theta.any())
            cut, val = min_cut_2color(inst.graph, theta)
            assert val == pytest.approx(ref * factor, abs=1e-9)
            assert np.dot(theta, cut) == pytest.approx(val, abs=1e-12)
            assert is_valid_multicut(inst.graph, cut)
            assert val <= 1e-12


def test_gadget_route_agrees():
    for seed in range(40):
        inst = gen_random_planar(4 + seed % 5, 2000 + seed)
        _, val = min_cut_2color(inst.graph, inst.theta)
        _, val_gadget = min_cut_2color_via_gadget(inst.graph, inst.theta)
        assert val_gadget == pytest.approx(val, abs=1e-9)


def test_expanded_dual_structure(triangle):
    xd = expand_dual(triangle, [-1.0, 2.0, 0.5])
    assert xd.problem.vertex_count % 2 == 0
    carried = [k for k, e in enumerate(xd.back_map) if e is not None]
    assert len(carried) == triangle.edge_count
    for k in carried:
        assert xd.problem.edges[k][2] == [-1.0, 2.0, 0.5][xd.back_map[k]]
    internal = [xd.problem.edges[k][2] for k, e in enumerate(xd.back_map) if e is None]
    assert all(w == 0.0 for w in internal)
    # the empty cut is always representable
    m = matching_for_cut(xd, np.zeros(3, dtype=bool))
    assert m.total_weight == 0.0


def test_gadget_four_cycle_minimum(four_cycle):
    cut, val = min_cut_2color_via_gadget(four_cycle, [-1.0, 1.0, 1.0, -1.0])
    assert val == pytest.approx(-2.0)
    assert cut.tolist() == [True, False, False, True]


def test_matching_cut_correspondence():
    rng = np.random.default_rng(9)
    checked = 0
    for seed in range(12):
        inst = gen_random_planar(int(rng.integers(4, 8)), 3000 + seed)
        xd = expand_dual(inst.graph, inst.theta)
        ref = min_weight_perfect_matching(xd.problem)
        for _ in range(10):
            labels = rng.integers(0, 2, size=inst.graph.vertex_count)
            x = cut_from_partition(inst.graph, labels)
            m = matching_for_cut(xd, x)
            expected = float(np.dot(inst.theta, x))
            assert m.total_weight == pytest.approx(expected, abs=1e-9)
            assert m.total_weight >= ref.total_weight - 1e-9
            checked += 1
    assert checked >= 100


def test_split_into_basic_cuts(triangle):
    cuts = split_into_basic_cuts(triangle, np.ones(3, dtype=bool))
    assert len(cuts) == 3
    assert all(c.sum() == 2 for c in cuts)
    merged = np.zeros(3, dtype=bool)
    for c in cuts:
        merged |= c
        assert is_valid_multicut(triangle, c)
    assert merged.all()

    two_comp = np.array([True, True, False])
    cuts = split_into_basic_cuts(triangle, two_comp)
    assert len(cuts) == 1
    assert cuts[0].tolist() == two_comp.tolist()

    assert split_into_basic_cuts(triangle, np.zeros(3, dtype=bool)) == []


def deduplicated_basic_cuts(graph, x):
    """The isolating cut of every component, keeping the first of equal cuts."""
    labels = partition_from_cut(graph, x)
    k = int(labels.max()) + 1
    if k <= 1:
        return []
    out = []
    seen = set()
    lt = labels[graph.tail]
    lh = labels[graph.head]
    for c in range(k):
        b = (lt == c) ^ (lh == c)
        key = b.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out


@given(st.data())
def test_split_into_basic_cuts_matches_deduplicated_loop(data):
    # on a connected graph only two components share their isolating cut
    graph = data.draw(planar_graphs)
    x = data.draw(edge_masks(graph.edge_count))
    got = split_into_basic_cuts(graph, x)
    want = deduplicated_basic_cuts(graph, x)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_basic_cuts_cover_random():
    rng = np.random.default_rng(17)
    for seed in range(20):
        inst = gen_random_planar(int(rng.integers(4, 9)), 4000 + seed)
        labels = rng.integers(0, 3, size=inst.graph.vertex_count)
        x = cut_from_partition(inst.graph, labels)
        cuts = split_into_basic_cuts(inst.graph, x)
        merged = np.zeros(inst.graph.edge_count, dtype=bool)
        for c in cuts:
            assert is_valid_multicut(inst.graph, c)
            comp = partition_from_cut(inst.graph, c)
            assert comp.max() + 1 >= 2
            merged |= c
        assert np.array_equal(merged, x)


@given(st.data())
def test_directed_dual_pattern_matches_undirected_dijkstra(data):
    # the oracle's directed CSR holds both directions of every face pair;
    # the reference holds each pair once (upper triangle), undirected
    graph = data.draw(planar_graphs)
    info = cut_oracle._dual_info(graph)
    fc, groups = info.face_count, info.group_key.size
    weights = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 10.0))
    gmin = np.array(data.draw(st.lists(weights, min_size=groups, max_size=groups)))
    terminals = np.flatnonzero(data.draw(edge_masks(fc)))
    lo, hi = info.group_key // fc, info.group_key % fc
    upper = csr_matrix((gmin, hi, np.searchsorted(lo, np.arange(fc + 1))), shape=(fc, fc))
    ref_dist, ref_pred = dijkstra(upper, directed=False, indices=terminals, return_predecessors=True)
    np.take(gmin, info.slot_group, out=info.adj.data)  # as the oracle refills it
    dist, pred = dijkstra(info.adj, directed=True, indices=terminals, return_predecessors=True)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(pred, ref_pred)


def _scale_to_int_loop(values, max_digits=9):
    """The former one-scale-at-a-time search, kept as the reference."""
    arr = np.asarray(values, dtype=float)
    for digits in range(max_digits + 1):
        scaled = arr * 10**digits
        rounded = np.rint(scaled)
        if np.all(np.abs(scaled - rounded) <= 1e-12 * np.maximum(1.0, np.abs(scaled))):
            return (rounded.astype(np.int64), 10**digits) if np.max(np.abs(rounded)) < 2**52 else None
    return None


@given(
    st.lists(
        st.one_of(
            st.integers(-(10**6), 10**6).flatmap(
                lambda k: st.integers(0, 9).map(lambda d: k / 10**d)
            ),
            st.floats(-1e6, 1e6),
            st.floats(-1e17, 1e17),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_scale_to_int_matches_scale_by_scale_search(values):
    got, ref = scale_to_int(values), _scale_to_int_loop(values)
    if ref is None:
        assert got is None
    else:
        assert np.array_equal(got[0], ref[0]) and got[0].dtype == ref[0].dtype
        assert got[1] == ref[1] and type(got[1]) is int


@pytest.fixture
def searches(monkeypatch):
    """(sources, limit) of every per-terminal `dijkstra` call, and "match"
    for every matching, with the bounded search on from two terminals up."""
    calls = []

    def counting_dijkstra(*args, **kwargs):
        if not kwargs.get("min_only"):
            calls.append((len(kwargs["indices"]), kwargs.get("limit", np.inf)))
        return dijkstra(*args, **kwargs)

    def counting_match(*args):
        calls.append("match")
        return match(*args)

    match = cut_oracle._match_terminals
    monkeypatch.setattr(cut_oracle, "dijkstra", counting_dijkstra)
    monkeypatch.setattr(cut_oracle, "_match_terminals", counting_match)
    monkeypatch.setattr(cut_oracle, "SMALL_T", 0)
    return calls


oracle_instances = st.one_of(
    st.builds(gen_random_planar, st.integers(3, 10), st.integers(0, 2**32 - 1)),
    st.builds(
        gen_grid, st.integers(2, 6), st.integers(2, 6),
        st.sampled_from([GpbLikeWeights(0.27), GpbLikeWeights(0.12)]), st.integers(0, 2**32 - 1),
    ),
)


def oracle_results(graph, theta, small_t, limit_factor=cut_oracle.LIMIT_FACTOR):
    """The oracle's free cut and the forced cuts of the first and last edge,
    with the bounded search from `small_t` terminals up."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cut_oracle, "SMALL_T", small_t)
        mp.setattr(cut_oracle, "LIMIT_FACTOR", limit_factor)
        forced = [min_cut_forced(graph, theta, e) for e in (0, graph.edge_count - 1)]
        return [min_cut_2color(graph, theta), *forced]


@given(oracle_instances, st.sampled_from([1.0, np.pi]), st.sampled_from([2.0, 1.0, 0.5]))
def test_bounded_search_matches_unlimited_search(inst, factor, limit_factor):
    # factor pi makes the weights non-decimal: they are rounded up to the
    # grid.  Smaller first limits leave out more pairs, so pricing decides more.
    theta = inst.theta * factor
    got = oracle_results(inst.graph, theta, 0, limit_factor)
    want = oracle_results(inst.graph, theta, np.inf)
    for (cut, val), (ref_cut, ref_val) in zip(got, want):
        assert val == ref_val and np.array_equal(cut, ref_cut)
    if inst.graph.vertex_count <= 16:
        assert got[0][1] == pytest.approx(brute_cc2(inst.graph, theta)[1], abs=1e-9)


@given(oracle_instances, st.sampled_from([1.0, np.pi]))
def test_grouped_search_matches_unlimited_search(inst, factor):
    # two terminals per group: the rows are searched in up to six groups,
    # each to its own largest radius
    theta = inst.theta * factor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cut_oracle, "ROWS_PER_GROUP", 2)
        got = oracle_results(inst.graph, theta, 0)
    want = oracle_results(inst.graph, theta, np.inf)
    for (cut, val), (ref_cut, ref_val) in zip(got, want):
        assert val == ref_val and np.array_equal(cut, ref_cut)


@pytest.mark.parametrize("factor", [1.0, np.pi])
@pytest.mark.parametrize("n, seed, matchings", [(7, 136, 1), (9, 82, 2)])
def test_repair_searches_only_the_violating_rows(searches, monkeypatch, n, seed, matchings, factor):
    # the first radii leave out pairs that the matching's potentials price
    # above them; the repair searches only those pairs' rows, to their
    # prices.  The matching is solved again, from scratch, only when a new
    # pair is shorter than its price (on 9/82); on 7/136 every new pair
    # keeps the dual feasible, and the first matching stands.
    solve = _DenseBlossom.solve

    def recording_solve(self):
        searches.append("solve")
        return solve(self)

    monkeypatch.setattr(_DenseBlossom, "solve", recording_solve)
    inst = gen_random_planar(n, seed)
    theta = inst.theta * factor
    _, val = min_cut_2color(inst.graph, theta)
    (first, first_limit), (repair, repair_limit) = [c for c in searches if isinstance(c, tuple)]
    assert repair < first and first_limit < repair_limit < np.inf
    assert [c for c in searches if isinstance(c, str)] == ["match", "solve"] * matchings
    assert val == pytest.approx(brute_cc2(inst.graph, theta)[1], abs=1e-9)


@pytest.mark.parametrize("factor", [1.0, np.pi])
@pytest.mark.parametrize("n, seed", [(7, 136), (9, 82)])
def test_repair_falls_back_to_no_limit(searches, monkeypatch, n, seed, factor):
    monkeypatch.setattr(cut_oracle, "REPAIR_ROUNDS", 0)
    inst = gen_random_planar(n, seed)
    theta = inst.theta * factor
    _, val = min_cut_2color(inst.graph, theta)
    limits = [c[1] for c in searches if c != "match"]
    assert len(limits) == 2 and limits[0] < limits[1] == np.inf
    assert val == pytest.approx(brute_cc2(inst.graph, theta)[1], abs=1e-9)


def test_unfound_mates_are_searched_before_pricing(searches):
    # the pairs found at the first radii hold no perfect matching, so the
    # potentials are sentinel-sized; only the ends of the unfound matched
    # pair are searched again, not every row
    inst = gen_random_planar(12, 54)
    _, val = min_cut_2color(inst.graph, inst.theta)
    (first, first_limit), second, third, fourth = searches
    assert first == 6 and first_limit < np.inf
    assert (second, third, fourth) == ("match", (2, np.inf), "match")
    assert val == pytest.approx(brute_cc2(inst.graph, inst.theta)[1], abs=1e-9)
    assert val == pytest.approx(-2.776, abs=1e-9)


@pytest.mark.parametrize("factor", [1.0, np.pi])
def test_grouped_search_with_repairs(searches, monkeypatch, factor):
    # two terminals per group and first radii of one nearest-terminal
    # distance: four first groups, a matching, then a repair of three
    # groups whose new pairs undercut the first matching's dual, so it is
    # solved again
    monkeypatch.setattr(cut_oracle, "ROWS_PER_GROUP", 2)
    monkeypatch.setattr(cut_oracle, "LIMIT_FACTOR", 1.0)
    inst = gen_random_planar(11, 241)
    theta = inst.theta * factor
    cut, val = min_cut_2color(inst.graph, theta)
    events = ["search" if isinstance(c, tuple) else c for c in searches]
    assert events == ["search"] * 4 + ["match"] + ["search"] * 3 + ["match"]
    assert val == pytest.approx(brute_cc2(inst.graph, theta)[1], abs=1e-9)
    ref_cut, ref_val = oracle_results(inst.graph, theta, np.inf)[0]
    assert val == ref_val and np.array_equal(cut, ref_cut)


def test_oracle_calls_on_one_graph_from_many_threads():
    # calls on one graph share its cached dual adjacency, whose weights each
    # call refills: concurrent calls must still search their own weights
    inst = gen_grid(8, 8, GpbLikeWeights(0.27), seed=1)
    rng = np.random.default_rng(0)
    weights = [rng.normal(size=inst.theta.size) for _ in range(6)] * 10
    want = [min_cut_2color(inst.graph, w) for w in weights]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(min_cut_2color, inst.graph, w) for w in weights]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (cut, val), (ref_cut, ref_val) in zip(got, want):
        assert val == ref_val and np.array_equal(cut, ref_cut)


def check_grid_guarantee(graph, w, cut, value):
    """The oracle's weights are w rounded up onto a power-of-two grid, and
    `value`, the rounded weights of `cut`, is at least w's weight of it
    and at most the edge count times the grid step above."""
    ints, scale, solved = cut_oracle._prepare_weights(w, graph)
    step = 1 / scale
    assert np.frexp(step)[0] == 0.5 and np.array_equal(solved, ints * step)
    assert np.all(solved >= w) and np.all(solved - w < step)
    exact = sum(Fraction(x) for x in w[cut])  # w's weight of the cut, unrounded
    assert 0 <= Fraction(value) - exact <= graph.edge_count * Fraction(step)
    assert value == sum(Fraction(x) for x in solved[cut])


def test_large_decimal_weights_solve_on_the_grid():
    # integral weights near 1e15: scale_to_int accepts them, but path sums
    # pass 2**53 and the matching's sentinel would have no head-room, so the
    # oracle rounds them up onto a coarser grid
    inst = gen_grid(20, 20, GpbLikeWeights(0.27), seed=0)
    w = np.rint(inst.theta / np.abs(inst.theta).max() * 1e15)
    assert scale_to_int(w) is not None
    cut, val = min_cut_2color(inst.graph, w)
    check_grid_guarantee(inst.graph, w, cut, val)
    assert val == pytest.approx(-2.71368e16, rel=1e-5)
    e = int(np.flatnonzero(~cut)[0])
    forced, forced_val = min_cut_forced(inst.graph, w, e)
    assert forced[e] and forced_val >= val
    check_grid_guarantee(inst.graph, w, forced, forced_val)
    # the 2-colorable minimum cut is a clustering, so it bounds from above
    res = optimize_lower_bound(inst.graph, w, max_batches=2)
    assert np.minimum(w, 0).sum() <= res.bound <= val


def test_a_sum_that_would_wrap_in_int64_takes_the_grid_path():
    # a path of 3000 edges (one face) with integral weights 4e15: short
    # decimals below 2**52, but their absolute sum 1.2e19 passes 2**63, so
    # an unguarded int64 sum wraps below the budget and would solve them as
    # they are, without head-room
    m = 3000
    path = build_graph(m + 1, [(k, k + 1) for k in range(m)],
                       [(0,)] + [(k - 1, k) for k in range(1, m)] + [(m - 1,)])
    assert path.face_count == 1
    w = np.where(np.arange(m) % 2 == 0, 4e15, -4e15)
    ints = scale_to_int(w)[0]
    assert np.abs(ints).sum() < 0  # wrapped
    assert cut_oracle._abs_sum(ints) == 12 * 10**18
    _, scale, _ = cut_oracle._prepare_weights(w, path)
    assert scale < 1
    cut, val = min_cut_2color(path, w)
    check_grid_guarantee(path, w, cut, val)
    assert np.array_equal(cut, w < 0)


def _symmetric(t, entries, dtype):
    d = np.zeros((t, t), dtype=dtype)
    d[np.triu_indices(t, 1)] = entries
    return d + d.T


small_path_inputs = st.sampled_from(range(2, cut_oracle.SMALL_T, 2)).flatmap(
    lambda t: st.tuples(
        st.just(t),
        st.one_of(
            # heavy ties and near-2**52 entries
            st.lists(st.integers(0, 3), min_size=t * (t - 1) // 2, max_size=t * (t - 1) // 2)
            .map(lambda e: _symmetric(t, e, np.int64)),
            st.lists(st.integers(2**52 - 8, 2**52 - 1), min_size=t * (t - 1) // 2,
                     max_size=t * (t - 1) // 2)
            .map(lambda e: _symmetric(t, e, np.int64)),
        ),
    )
)


@given(small_path_inputs)
def test_enumeration_matches_brute_force_and_blossom(case):
    # the subset DP below SMALL_T; int64 sums of SMALL_T / 2 entries near
    # 2**52 stay below 2**56
    t, d = case
    pairs, pi = cut_oracle._match_terminals(d, np.ones((t, t), dtype=bool))
    assert pi is None
    assert sorted(v for p in pairs for v in p) == list(range(t))
    assert all(i < j for i, j in pairs)
    got = sum(d[i, j].item() for i, j in pairs)
    mate = match_dense(d, np.ones((t, t), dtype=bool))[0]
    blossom = sum(d[v, mate[v]].item() for v in range(t) if v < mate[v])
    assert got == blossom
    if t <= 12:  # (t - 1)!! matchings: 10395 at t = 12
        # the reference sums in float64, so the entries go in less their
        # least one: every perfect matching then costs t / 2 times it less
        base = d[np.triu_indices(t, 1)].min().item()
        edges = [(i, j, d[i, j].item() - base) for i in range(t) for j in range(i + 1, t)]
        assert got == int(brute_force_min_perfect(t, edges)[0]) + t // 2 * base


def _pairings(rest: tuple) -> list[list[tuple[int, int]]]:
    """Every perfect matching of `rest`, in table order: its first element
    paired with each later one in turn, then the matchings of what is left."""
    if not rest:
        return [[]]
    return [
        [(rest[0], rest[k]), *tail]
        for k in range(1, len(rest))
        for tail in _pairings(rest[1:k] + rest[k + 1 :])
    ]


def test_dp_breaks_ties_in_table_order():
    # {0,2},{1,3} and {0,3},{1,2} both cost 4 with the other pairs at 0;
    # the DP takes the least partner of terminal 0, although the second
    # has the smaller sum of squares (8 against 10)
    d = np.full((12, 12), 10, dtype=np.int64)
    for i in range(4, 12, 2):
        d[i, i + 1] = d[i + 1, i] = 0
    for (i, j), x in {(0, 2): 1, (1, 3): 3, (0, 3): 2, (1, 2): 2}.items():
        d[i, j] = d[j, i] = x
    assert cut_oracle._least_by_dp(d) == [(0, 2), (1, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
    # on heavy ties it returns the first minimum of every perfect matching
    # listed in table order
    table = np.array([[i * 12 + j for i, j in m] for m in _pairings(tuple(range(12)))])
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = _symmetric(12, rng.integers(0, 3, 66), np.int64)
        first = table[d.take(table).sum(axis=1).argmin()]
        assert cut_oracle._least_by_dp(d) == [divmod(k, 12) for k in first.tolist()]


def test_bounded_path_never_enumerates(monkeypatch):
    # below SMALL_T the subset DP matches every call, from two terminals up
    sizes, least_by_dp = [], cut_oracle._least_by_dp

    def counting(dist):
        sizes.append(len(dist))
        return least_by_dp(dist)

    monkeypatch.setattr(cut_oracle, "_least_by_dp", counting)
    instances = [gen_random_planar(v, seed) for v in (10, 20) for seed in range(10)]
    for small_t in (cut_oracle.SMALL_T, 0):
        sizes.clear()
        monkeypatch.setattr(cut_oracle, "SMALL_T", small_t)
        for inst in instances:
            min_cut_2color(inst.graph, inst.theta)
            min_cut_forced(inst.graph, inst.theta, 0)
        if small_t:
            assert sum(t <= 10 for t in sizes) >= 10
            assert any(12 <= t for t in sizes) and max(sizes) < cut_oracle.SMALL_T
    assert sizes == []


def test_every_blossom_solve_follows_a_bounded_search(monkeypatch):
    # both oracle calls on this instance have SMALL_T = 20 terminals: each
    # first runs the min_only search for its radii, then matches by the
    # blossom solver
    calls = []

    def counting_dijkstra(*args, **kwargs):
        calls.append("radii" if kwargs.get("min_only") else "search")
        return dijkstra(*args, **kwargs)

    def counting_match(dist, mask):
        calls.append(len(dist))
        return match_dense(dist, mask)

    monkeypatch.setattr(cut_oracle, "dijkstra", counting_dijkstra)
    monkeypatch.setattr(cut_oracle, "match_dense", counting_match)
    inst = gen_random_planar(20, 3)
    for solve in (min_cut_2color, lambda g, w: min_cut_forced(g, w, 0)):
        calls.clear()
        solve(inst.graph, inst.theta)
        assert calls[0] == "radii" and calls.count("radii") == 1
        sizes = [c for c in calls if isinstance(c, int)]
        assert sizes and set(sizes) == {cut_oracle.SMALL_T}


@pytest.mark.filterwarnings("error")
def test_huge_weights_solve_on_the_grid_without_warnings():
    # finite weights above about 1.8e299 overflow at scale_to_int's larger
    # scales; no scale passes and the oracle rounds them up onto its grid
    inst = gen_random_planar(8, 3)
    w = inst.theta / np.abs(inst.theta).max() * 1e300
    assert scale_to_int(w) is None
    cut, val = min_cut_2color(inst.graph, w)
    check_grid_guarantee(inst.graph, w, cut, val)
    assert val == pytest.approx(brute_cc2(inst.graph, w)[1], rel=1e-12)
