import itertools
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from planarclust.cut_oracle import scale_to_int
from planarclust.matching import MatchingError, _DenseBlossom, match_dense

from conftest import brute_force_min_perfect
from gadget import MatchingProblem, NoPerfectMatching, OddVertexCount, min_weight_perfect_matching


def random_problem(rng, n, density, weight_style):
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            if weight_style == "int":
                w = int(rng.integers(-4, 5))
            else:
                w = round(float(rng.uniform(-1, 1)), 5)
            edges.append((u, v, w))
    return MatchingProblem(n, tuple(edges))


def test_single_edge():
    m = min_weight_perfect_matching(MatchingProblem(2, ((0, 1, 5.0),)))
    assert m.matched_edges == {0}
    assert m.total_weight == 5.0


def test_path():
    p = MatchingProblem(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)))
    m = min_weight_perfect_matching(p)
    assert m.matched_edges == {0, 2}
    assert m.total_weight == 4.0


def test_four_cycle():
    p = MatchingProblem(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)))
    m = min_weight_perfect_matching(p)
    assert m.matched_edges == {0, 2}
    assert m.total_weight == 4.0


def test_odd_vertex_count():
    with pytest.raises(OddVertexCount):
        min_weight_perfect_matching(MatchingProblem(3, ((0, 1, 1.0),)))


def test_no_perfect_matching_star():
    p = MatchingProblem(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
    with pytest.raises(NoPerfectMatching):
        min_weight_perfect_matching(p)


def test_no_perfect_matching_disconnected_odd():
    edges = ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0))
    with pytest.raises(NoPerfectMatching):
        min_weight_perfect_matching(MatchingProblem(6, edges))


def test_negative_weights():
    p = MatchingProblem(4, ((0, 1, -3.0), (1, 2, -10.0), (2, 3, -3.0), (3, 0, 1.0)))
    m = min_weight_perfect_matching(p)
    assert m.total_weight == -9.0  # -10 is a trap: it forces (3,0) at +1


def test_scale_to_int():
    ints, scale = scale_to_int([0.25, -1.5])
    assert scale == 100 and ints.tolist() == [25, -150]
    ints, scale = scale_to_int([round(x, 5) for x in (0.12345, -0.00001)])
    assert scale == 10**5
    assert scale_to_int([np.pi]) is None


@pytest.mark.parametrize("weight_style", ["int", "decimal"])
def test_exact_on_small_random_graphs(weight_style):
    rng = np.random.default_rng(hash(weight_style) % 2**32)
    checked = 0
    for trial in range(120):
        n = int(rng.integers(2, 9)) * 2 - 2 or 2
        n = max(2, min(10, n))
        problem = random_problem(rng, n, float(rng.uniform(0.4, 1.0)), weight_style)
        ref = brute_force_min_perfect(n, problem.edges)
        if ref is None:
            with pytest.raises(NoPerfectMatching):
                min_weight_perfect_matching(problem)
            continue
        m = min_weight_perfect_matching(problem)
        assert m.total_weight == pytest.approx(ref[0], abs=1e-9)
        # verify the reported matching is genuinely perfect
        covered = sorted(
            v for k in m.matched_edges for v in problem.edges[k][:2]
        )
        assert covered == list(range(n))
        checked += 1
    assert checked > 60


def test_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = 8
        problem = random_problem(rng, n, 0.7, "int")
        if brute_force_min_perfect(n, problem.edges) is None:
            continue
        base = min_weight_perfect_matching(problem)
        c = int(rng.integers(-5, 6))
        shifted = MatchingProblem(
            n, tuple((u, v, w + c) for u, v, w in problem.edges)
        )
        m2 = min_weight_perfect_matching(shifted)
        assert m2.total_weight == pytest.approx(base.total_weight + c * (n // 2))


def test_determinism():
    rng = np.random.default_rng(3)
    problem = random_problem(rng, 10, 0.8, "int")
    m1 = min_weight_perfect_matching(problem)
    m2 = min_weight_perfect_matching(problem)
    assert m1.matched_edges == m2.matched_edges
    assert m1.total_weight == m2.total_weight


def test_against_networkx_medium():
    rng = np.random.default_rng(11)
    for n in (20, 30, 40):
        problem = random_problem(rng, n, 0.5, "int")
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, w in problem.edges:
            g.add_edge(u, v, weight=-w)
        ref = nx.max_weight_matching(g, maxcardinality=True)
        if len(ref) * 2 < n:
            with pytest.raises(NoPerfectMatching):
                min_weight_perfect_matching(problem)
            continue
        ref_weight = sum(g[u][v]["weight"] for u, v in ref)
        m = min_weight_perfect_matching(problem)
        assert m.total_weight == pytest.approx(-ref_weight)


def test_complete_graph_ties():
    # many co-optimal matchings: uniform weights stress blossom formation
    for n in (6, 8, 10, 12):
        edges = tuple((u, v, 1.0) for u, v in itertools.combinations(range(n), 2))
        m = min_weight_perfect_matching(MatchingProblem(n, edges))
        assert m.total_weight == n // 2


def test_tie_heavy_sparse_vs_networkx():
    # 0/1-weight sparse graphs drive blossom shrinking, persistence across
    # stages, and mid-stage expansion; verified against networkx
    rng = np.random.default_rng(97)
    for trial in range(150):
        n = 2 * int(rng.integers(4, 11))
        density = (0.25, 0.35, 0.5)[trial % 3]
        edges = tuple(
            (u, v, float(int(rng.integers(0, 2))))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < density
        )
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, w in edges:
            g.add_edge(u, v, weight=-w)
        ref = nx.max_weight_matching(g, maxcardinality=True)
        if len(ref) * 2 < n:
            with pytest.raises(NoPerfectMatching):
                min_weight_perfect_matching(MatchingProblem(n, edges))
            continue
        refw = -sum(g[u][v]["weight"] for u, v in ref)
        m = min_weight_perfect_matching(MatchingProblem(n, edges))
        assert m.total_weight == refw


# -- match_dense against exhaustive search ------------------------------


def brute_force_dense(w, mask):
    """(real-edge count, cost) of the best maximum matching of all pairs.

    Pairs outside `mask` may be matched but count as missing: the best
    matching has the most real edges, then the least real cost.
    """
    best = None

    def rec(rest, count, cost):
        nonlocal best
        if not rest:
            if best is None or (-count, cost) < (-best[0], best[1]):
                best = (count, cost)
            return
        u = rest[0]
        for i in range(1, len(rest)):
            v = rest[i]
            left = rest[1:i] + rest[i + 1:]
            if mask[u, v]:
                rec(left, count + 1, cost + w[u, v])
            else:
                rec(left, count, cost)

    rec(list(range(w.shape[0])), 0, 0)
    return best


def check_against_brute_force(w, mask):
    n = w.shape[0]
    mate, _ = match_dense(w, mask)
    assert (mate[mate] == np.arange(n)).all()
    assert (mate != np.arange(n)).all()
    pairs = [(v, int(mate[v])) for v in range(n) if v < mate[v] and mask[v, mate[v]]]
    count, cost = brute_force_dense(w, mask)
    assert len(pairs) == count
    assert sum(w[u, v] for u, v in pairs) == cost


def symmetric(n, upper, dtype):
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, 1)] = upper
    return m + m.T


@pytest.mark.parametrize("dtype", [np.int64])
def test_match_dense_sparse_masks(dtype):
    # sparse masks, many without a perfect matching: missing pairs hold the
    # sentinel, which must not swamp the real weights
    rng = np.random.default_rng(5)
    unmatched = 0
    for _ in range(400):
        n = 2 * int(rng.integers(1, 6))
        k = n * (n - 1) // 2
        w = symmetric(n, rng.integers(-10**6, 10**6, k), dtype)
        mask = symmetric(n, rng.random(k) < rng.uniform(0.2, 0.7), bool)
        check_against_brute_force(w, mask)
        unmatched += brute_force_dense(w, mask)[0] < n // 2
    assert unmatched > 100


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("n", [1, 3, 9])
def test_match_dense_rejects_odd_size(n, dtype):
    # the cut oracle matches odd-degree faces, always an even number of them;
    # the size is checked before the dtype
    w = symmetric(n, np.arange(n * (n - 1) // 2), dtype)
    with pytest.raises(MatchingError, match="odd"):
        match_dense(w, ~np.eye(n, dtype=bool))


@pytest.mark.parametrize("dtype", [np.float64, bool])
def test_match_dense_rejects_non_integer_weights(dtype):
    # the cut oracle scales its weights to int64 first
    w = symmetric(4, np.arange(1, 7), dtype)
    with pytest.raises(MatchingError, match="integer"):
        match_dense(w, ~np.eye(4, dtype=bool))


def test_sentinel_head_room():
    # the sentinel is 1 + 2*n*max|w|; 16 times it must stay below 2**62
    n = 4
    ok = 2**55 - 1
    rng = np.random.default_rng(2)
    for _ in range(20):
        upper = rng.integers(-ok, ok, 6, endpoint=True)
        upper[0] = ok
        w = symmetric(n, upper, np.int64)
        check_against_brute_force(w, symmetric(n, rng.random(6) < 0.6, bool))
    w[0, 1] = w[1, 0] = ok + 1
    with pytest.raises(MatchingError):
        match_dense(w, np.ones((n, n), dtype=bool))


@st.composite
def dense_problems(draw, values):
    n = 2 * draw(st.integers(1, 5))
    k = n * (n - 1) // 2
    upper = draw(st.lists(values, min_size=k, max_size=k))
    present = draw(st.one_of(st.just([True] * k), st.lists(st.booleans(), min_size=k, max_size=k)))
    return symmetric(n, upper, np.int64), symmetric(n, present, bool)


def match_with_dual_check(w, mask):
    """`match_dense`'s mate array, after checking that the solver's final
    duals certify it: the LP dual of the (negated, doubled) problem
    is feasible and complementary to the matching."""
    solver = _DenseBlossom(w, mask)
    result, _ = solver.solve()
    n, y, mate = solver.n, solver.y, solver.mate
    slack = y[:n, None] + y[None, :n] - solver.W2
    for b in solver.active_blossoms:
        leaves = solver._leaves(b)
        slack[np.ix_(leaves, leaves)] += 2 * y[b]
        assert y[b] >= 0, f"blossom {b} has dual {y[b]}"
        if y[b] > 0:
            inside = np.isin(mate[leaves], leaves).sum()
            assert inside == len(leaves) - 1, f"blossom {b} has a positive dual and is not full"
    off = ~np.eye(n, dtype=bool)
    assert slack[off].min(initial=0) >= 0
    assert (slack[np.arange(n), mate] == 0).all()
    return result


def check_potentials(w, mask):
    """`match_dense`'s potentials price every real pair: w_ij >= pi_i + pi_j,
    with equality on matched pairs, up to z_ij >= 0, the summed duals of the
    final blossoms that hold both i and j (0 for pairs in no common one)."""
    solver = _DenseBlossom(w, mask)  # what match_dense runs
    mate, pi = solver.solve()
    check_certificate(w, mask, mate, pi, solver)


def check_certificate(w, mask, mate, pi, solver):
    """`check_potentials` for a result (mate, pi) and the solver it left."""
    n = w.shape[0]
    assert np.array_equal(pi, solver.y[:n] / -2)
    z = np.zeros((n, n))
    for b in solver.active_blossoms:
        leaves = solver._leaves(b)
        z[np.ix_(leaves, leaves)] += solver.y[b]
    assert (z >= 0).all()
    slack = w - pi[:, None] - pi[None, :] + z
    real = mask & ~np.eye(n, dtype=bool)
    assert slack[real].min(initial=0) >= 0
    v = np.flatnonzero(real[np.arange(n), mate])
    assert (slack[v, mate[v]] == 0).all()


@pytest.mark.parametrize(
    "values",
    [st.integers(-2, 2), st.integers(-10**9, 10**9)],
    ids=["ties", "signed-ints"],
)
@given(data=st.data())
def test_match_dense_potentials(values, data):
    check_potentials(*data.draw(dense_problems(values)))


@pytest.mark.parametrize("dtype", [np.int64])
def test_potentials_certify_left_out_pairs(dtype):
    # the cut oracle's pricing: solve over the pairs up to a limit; when the
    # matching uses none of the others and the potentials price each of
    # them at or below its weight, the matching is optimal over all pairs
    rng = np.random.default_rng(23)
    certified = 0
    for _ in range(200):
        n = 2 * int(rng.integers(2, 6))
        d = euclidean_metric(rng, n).astype(dtype)
        off = ~np.eye(n, dtype=bool)
        limit = np.quantile(d[off], rng.uniform(0.2, 1.0))
        mask = off & (d <= limit)
        mate, pi = match_dense(d, mask)
        left_out = off & ~mask
        if not mask[np.arange(n), mate].all():
            continue
        if ((pi[:, None] + pi[None, :])[left_out] > d[left_out]).any():
            continue
        certified += 1
        got = sum(d[v, mate[v]] for v in range(n) if v < mate[v])
        assert got == brute_force_dense(d, off)[1]
    assert certified > 100


@given(dense_problems(st.integers(-2, 2)))
def test_match_dense_ties(problem):
    check_against_brute_force(*problem)
    match_with_dual_check(*problem)


@given(dense_problems(st.integers(-10**9, 10**9)))
def test_match_dense_signed_ints(problem):
    check_against_brute_force(*problem)
    match_with_dual_check(*problem)


def test_int_duals_stay_even():
    # Integer duals once started at top // 2, of mixed parity.  An S-S
    # slack could then be odd, the halved dual step was floored, and an
    # edge at slack 1 joined the matching: this problem cost -34, not -35.
    w = np.array([
        [0, 3, 0, -1, -9, 6, -2, 7, 0, 10, 2, 4],
        [3, 0, 4, -3, -8, 8, -1, -5, -8, -4, -8, 5],
        [0, 4, 0, -1, -8, -3, -7, 10, 9, 1, -2, 8],
        [-1, -3, -1, 0, 8, 0, -7, -2, -6, 5, 5, 1],
        [-9, -8, -8, 8, 0, -6, -2, -8, 4, -1, -5, 2],
        [6, 8, -3, 0, -6, 0, 5, 8, -2, -4, 10, 9],
        [-2, -1, -7, -7, -2, 5, 0, -2, 8, -8, 7, -5],
        [7, -5, 10, -2, -8, 8, -2, 0, -7, -4, 6, 8],
        [0, -8, 9, -6, 4, -2, 8, -7, 0, 2, 1, -2],
        [10, -4, 1, 5, -1, -4, -8, -4, 2, 0, 2, 0],
        [2, -8, -2, 5, -5, 10, 7, 6, 1, 2, 0, 3],
        [4, 5, 8, 1, 2, 9, -5, 8, -2, 0, 3, 0],
    ], dtype=np.int64)
    mask = ~np.eye(12, dtype=bool)
    mate = match_with_dual_check(w, mask)
    assert sum(w[v, mate[v]] for v in range(12) if v < mate[v]) == -35
    check_against_brute_force(w, mask)


def euclidean_metric(rng, t):
    pts = rng.random((t, 2)) * 1000
    d = np.rint(np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1)))
    return shortest_path(d, directed=False).astype(np.int64)  # exact metric


def test_match_dense_euclidean_metric_vs_networkx(monkeypatch):
    # the production shape: complete metric matrices over 60-100 terminals.
    # At this size a T-blossom's dual often reaches zero mid-stage; the
    # solver then expands it and starts a new stage.
    expand = _DenseBlossom._expand_blossom
    restarts = nested = 0

    def counting_expand(self, b):
        nonlocal restarts, nested
        # zero-dual children are expanded by nested calls
        restarts += nested == 0 and self.label[b] == 2
        nested += 1
        try:
            expand(self, b)
        finally:
            nested -= 1

    monkeypatch.setattr(_DenseBlossom, "_expand_blossom", counting_expand)
    rng = np.random.default_rng(13)
    restarted = 0
    for k in range(32):
        t = (98, 100)[k] if k < 2 else 2 * int(rng.integers(30, 41))
        d = euclidean_metric(rng, t)
        before = restarts
        mate = match_with_dual_check(d, ~np.eye(t, dtype=bool))
        restarted += restarts > before
        assert sorted(mate[mate]) == list(range(t))
        g = nx.Graph()
        for u, v in itertools.combinations(range(t), 2):
            g.add_edge(u, v, weight=-int(d[u, v]))
        ref = nx.max_weight_matching(g, maxcardinality=True)
        assert len(ref) * 2 == t
        assert sum(int(d[v, mate[v]]) for v in range(t) if v < mate[v]) == -sum(
            g[u][v]["weight"] for u, v in ref
        )
    assert restarted >= 5


def nested_blossom_chains(k):
    """Two roots, each under a chain of k nested blossoms, and one dear edge
    between the two outer layers.  Each side holds pairs (a_i, b_i) at cost
    0; its root r meets a_1 and b_1, and b_i meets a_(i+1), a_i meets
    b_(i+1), all at cost 1.  The greedy start matches the pairs and leaves
    both roots free; the stage then closes the blossom {r, a_1, b_1} and
    wraps each layer i + 1 around layer i, until the dear edge augments
    through all k layers on both sides.  The optimum shifts each side's
    chain by one pair, cost k per side, plus the dear edge."""
    n = 2 * (2 * k + 1)
    w = np.zeros((n, n), dtype=np.int64)
    mask = np.zeros((n, n), dtype=bool)

    def edge(u, v, cost):
        w[u, v] = w[v, u] = cost
        mask[u, v] = mask[v, u] = True

    outer = []
    for side in range(2):
        a = [2 * (side * k + i) for i in range(k)]
        b = [x + 1 for x in a]
        root = 4 * k + side
        edge(root, a[0], 1)
        edge(root, b[0], 1)
        for i in range(k):
            edge(a[i], b[i], 0)
        for i in range(k - 1):
            edge(b[i], a[i + 1], 1)
            edge(a[i], b[i + 1], 1)
        outer.append(b[-1])
    dear = 4 * k + 10
    edge(*outer, dear)
    return w, mask, 2 * k + dear


def test_deeply_nested_blossoms_need_no_deep_stack():
    # blossoms nest about a thousand deep on 140x140 grids; the solver must
    # not need a Python frame per nesting level
    k = 120
    w, mask, optimum = nested_blossom_chains(k)
    n = w.shape[0]
    solver = _DenseBlossom(w, mask)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + k // 2)
    try:
        mate, _ = solver.solve()
    finally:
        sys.setrecursionlimit(limit)
    nesting = []
    for v in range(n):
        levels, b = 0, solver.parent[v]
        while b >= 0:
            levels, b = levels + 1, solver.parent[b]
        nesting.append(levels)
    assert max(nesting) == k
    assert mask[np.arange(n), mate].all()
    assert sum(int(w[v, mate[v]]) for v in range(n) if v < mate[v]) == optimum
    assert np.array_equal(match_with_dual_check(w, mask), mate)

