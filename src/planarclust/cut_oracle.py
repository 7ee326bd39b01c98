"""Optimal 2-colorable cuts of a planar graph via its dual.

A set of edges is a bipartition cut of a connected plane graph exactly when
the corresponding dual edges form an even subgraph (every face has even
degree in the set).  Minimizing a signed weight over even subgraphs reduces
to perfect matching:

* flip all negative edges into the solution and pay their weight;
* the flipped set violates evenness exactly at the faces with an odd number
  of negative edges, so the cheapest repair is a minimum T-join over the
  absolute weights, which is solved as a minimum-weight perfect matching of
  the odd faces under shortest-path distances.

The distances come from one Dijkstra run per odd face on a directed CSR
pattern of the dual that is built once per topology; a call only fills in
the edge weights.  On small graphs the fixed cost per call dominates,
which is why the pattern is cached.

The matching only uses short terminal pairs, so the search from terminal
i stops at its own radius lim_i instead of covering all F faces.  From
SMALL_T terminals up (below it all pairs are searched), one multi-source
run gives each terminal its nearest-other-terminal distance exactly,
through the dual edges between Voronoi cells, and lim_i starts at
LIMIT_FACTOR times it; rows are searched in quantile groups of
radius, each to its largest one: one group per ROWS_PER_GROUP rows, at
most six.  So calls under 2 * ROWS_PER_GROUP = 48 terminals, such as the
recursive decoder's on 14x14 grids, search in one group, and the 28x28
grids of the benchmark's grid-gpb workload (about 100 terminals) in four.
A pair that no row found is longer than max(lim_i, lim_j), so when the
matching over the found pairs uses found pairs only and its vertex
potentials pi (`matching.match_dense`) give every left-out pair
pi_i + pi_j <= max(lim_i, lim_j), its dual is feasible for the full
metric and the matching is optimal.  A matched pair that no row found
(no perfect matching over the found pairs) first has its ends searched
without a limit.  Otherwise the call repairs the certificate: it searches
again from the ends of each violating pair only, to the row's largest
violating price, and solves the matching again only when a newly found
pair is shorter than its price: every other new pair keeps the dual
feasible, so the last mates and potentials stay optimal.  After
REPAIR_ROUNDS rounds the rest is searched without a limit.  Each matched
pair is walked on the row of an end that reached the other: an exactly
shortest path.  The call keeps the T x T terminal distances, not T x F.

Below SMALL_T terminals every pair is known and no potential is read, so
a dynamic program over subsets (Held & Karp's, for matching) enumerates
the matchings for a fraction of a blossom solve's set-up: one gather, add
and segment minimum per two terminals.  Every other matching follows a
bounded search and goes to `matching.match_dense`, the blossom solver.

Every call runs in exact int64 arithmetic with head-room: path sums stay
below 2**53, so float Dijkstra distances are exact integers, and the
matching's sentinel has room for any distance.  Short decimals are solved
as they are (`scale_to_int`), other weights rounded up onto the finest
power-of-two grid with head-room, which makes no cut lighter.
"""

from __future__ import annotations

import itertools
import threading
import weakref

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import PlanarGraph, finite_weights, partition_from_cut
from .matching import match_dense


class OracleError(RuntimeError):
    """The oracle's result violates a condition it guarantees."""


# below this many terminals the search has no limit and the matching is
# enumerated; from it up the search is bounded and only then does the
# blossom solver match.  The limit won from 8 terminals up on 14x14 and
# 28x28 grids and lost on planar graphs of up to 36 faces, by about 130 us
# per 20-terminal call; at 20 the subset DP and a blossom solve ran even.
# 20 or 22 terminals: 28 of 2831 planar-desk and 74 of 338 decode-recursive
# calls of a seed-0 round, no grid-gpb call (2-core x86-64 host)
SMALL_T = 20
# a terminal's first search radius, in multiples of its distance to its
# nearest other terminal
LIMIT_FACTOR = 2.0
# terminals per quantile group of search radii; one `dijkstra` call per
# group, at most six groups.  Measured on the oracle inputs of a seed-0
# grid-gpb round (T mean 99): 24 took 0.84 of the time of 128, which
# searched every call there in one group; 16 and 32 took 0.85 and 0.88,
# and a cap of ten groups gained nothing.
ROWS_PER_GROUP = 24
# certificate repairs before the search falls back to no limit
REPAIR_ROUNDS = 3


_dual_cache: "weakref.WeakKeyDictionary[PlanarGraph, _DualInfo]" = weakref.WeakKeyDictionary()


class _DualInfo:
    """Per-topology data reused across weight vectors."""

    def __init__(self, graph: PlanarGraph):
        f1, f2 = graph.edge_face_ids[:, 0], graph.edge_face_ids[:, 1]
        nl = np.flatnonzero(f1 != f2)  # bridges are dual self-loops
        lo = np.minimum(f1[nl], f2[nl])
        hi = np.maximum(f1[nl], f2[nl])
        order = np.lexsort((hi, lo))
        self.sorted_edges = nl[order]
        self.face_count = fc = graph.face_count
        key = lo[order] * fc + hi[order]
        first = np.ones(key.size, dtype=bool)  # a sorted edge starts a group
        first[1:] = key[1:] != key[:-1]
        self.group_starts = starts = np.flatnonzero(first)
        # per sorted edge, its group and its position
        self.group_of, self.positions = np.cumsum(first) - 1, np.arange(key.size)
        # sorted face-pair key per group: lookup of the group joining two faces
        self.group_key = group_key = key[starts]
        self.group_lo, self.group_hi = group_lo, group_hi = group_key // fc, group_key % fc
        # directed dual adjacency: both directions of every group, rows sorted
        # by column; int32, which scipy keeps without a copy per call
        rows = np.concatenate((group_lo, group_hi))
        cols = np.concatenate((group_hi, group_lo))
        slots = np.lexsort((cols, rows))
        self.slot_group = (slots % starts.size).astype(np.int32)
        indices = cols[slots].astype(np.int32)
        indptr = np.searchsorted(rows[slots], np.arange(fc + 1)).astype(np.int32)
        # a call refills `adj.data` in place: scipy builds a csr_matrix in
        # 12-14 us (about 56 us inside the desk-scale bound loop), a refill
        # takes 2 us.  `lock` guards it while in use.
        self.adj = csr_matrix((np.zeros(indices.size), indices, indptr), shape=(fc, fc))
        self.lock = threading.Lock()
        self.prepared: tuple = (None,)  # the last `_prepare_weights` key and result


def _dual_info(graph: PlanarGraph) -> _DualInfo:
    info = _dual_cache.get(graph)
    if info is None:
        info = _DualInfo(graph)
        _dual_cache[graph] = info
    return info


def _subset_levels(t: int):
    """The transitions of `_least_by_dp` for t terminals, level by level
    from states of 2 free terminals up to t: (every transition's flat pair
    index i * t + j, where each level starts among them, per level each
    transition's child state one level down, per level each state's first
    transition).

    A state is the set of terminals still free, reached from range(t) by
    pairing the least free one, i, with another, j: one transition per j,
    in increasing order, to the state without i and j.  Fibonacci-many
    states are reached: 4181 at t = 18."""
    states = {(1 << t) - 1: 0}  # bit mask -> index in its level
    levels = []
    for _ in range(t // 2):
        below, pairs, children = {}, [], []
        for s in states:  # in index order
            i = (s & -s).bit_length() - 1
            rest = s ^ (1 << i)
            r = rest
            while r:
                b = r & -r
                pairs.append(i * t + b.bit_length() - 1)
                children.append(below.setdefault(rest ^ b, len(below)))
                r ^= b
        levels.append((pairs, children))
        states = below
    levels.reverse()
    starts = np.cumsum([0] + [len(p) for p, _ in levels])
    return (
        np.array([k for p, _ in levels for k in p]),
        starts.tolist(),
        [np.array(c) for _, c in levels],
        [np.arange(0, len(p), 2 * k + 1) for k, (p, _) in enumerate(levels)],
    )


_LEVELS = {t: _subset_levels(t) for t in range(2, SMALL_T, 2)}


def _least_by_dp(dist: np.ndarray) -> list[tuple[int, int]]:
    """The perfect matching of least summed distance, by a dynamic program
    over the states of `_subset_levels`: a state's least cost is its least
    transition's pair distance plus its child's least cost.  Among tied
    minima it takes, from the full set down, the least partner of the
    least free terminal.  int64 sums are exact: at most SMALL_T / 2 terms
    below 2**53."""
    t = dist.shape[0]
    pairs, starts, children, firsts = _LEVELS[t]
    cost = dist.take(pairs)  # per transition: its pair, then plus its child's least
    least = cost[: starts[1]]  # a state of two terminals has one transition
    for k in range(1, t // 2):
        level = cost[starts[k] : starts[k + 1]]
        level += least.take(children[k])
        least = np.minimum.reduceat(level, firsts[k])
    matching, s = [], 0
    for k in range(t // 2 - 1, -1, -1):
        w = 2 * k + 1  # transitions per state of 2k + 2 terminals
        first = starts[k] + s * w
        x = first + int(cost[first : first + w].argmin())
        matching.append(divmod(pairs.item(x), t))
        s = children[k].item(x - starts[k])
    return matching


def _match_terminals(dist: np.ndarray, mask: np.ndarray):
    """Min-weight perfect matching of the terminals over the pairs in `mask`
    (its diagonal is ignored): (pairs of terminal indices, potentials).

    Below SMALL_T terminals (every pair known, potentials unused) it
    enumerates by `_least_by_dp`, with potentials None.  Every other call,
    made after a bounded search, goes to `match_dense`, the one entry to
    the blossom solver."""
    t = dist.shape[0]
    if t < SMALL_T and t in _LEVELS:  # _LEVELS covers the SMALL_T it was built for
        return _least_by_dp(dist), None
    mate, pi = match_dense(dist, mask)
    return [(v, int(mate[v])) for v in range(t) if v < mate[v]], pi


def _first_radii(info: _DualInfo, gmin: np.ndarray, terminals: np.ndarray) -> np.ndarray:
    """LIMIT_FACTOR times each terminal's distance to its nearest other
    terminal.  A shortest path between two terminals leaves the first one's
    Voronoi cell through a dual edge whose endpoints lie in different cells,
    so the least such crossing per cell is that distance exactly."""
    dist, _, source = dijkstra(
        info.adj, directed=True, indices=terminals, min_only=True, return_predecessors=True
    )
    lo, hi = info.group_lo, info.group_hi
    cross = np.flatnonzero(source[lo] != source[hi])
    via = dist[lo[cross]] + gmin[cross] + dist[hi[cross]]
    nearest = np.full(info.face_count, np.inf)
    np.minimum.at(nearest, source[lo[cross]], via)
    np.minimum.at(nearest, source[hi[cross]], via)
    return LIMIT_FACTOR * nearest[terminals]


def _search(info, terminals, rows, radii, d_t, pred, lim):
    """Search from the terminals `rows` in quantile groups of their `radii`,
    each group to its largest radius, and write their rows of the terminal
    distances `d_t`, the predecessors `pred` and the radii searched `lim`."""
    groups = min(max(rows.size // ROWS_PER_GROUP, 1), 6)
    rows = rows[np.argsort(radii[rows], kind="stable")]
    for k in range(groups):
        group = rows[k * rows.size // groups : (k + 1) * rows.size // groups]
        limit = radii[group].max()
        dist, pred[group] = dijkstra(
            info.adj, directed=True, indices=terminals[group], limit=limit, return_predecessors=True
        )
        d_t[group] = dist[:, terminals]
        lim[group] = limit


def _search_and_match(info: _DualInfo, gmin: np.ndarray, terminals: np.ndarray):
    """Min-weight perfect matching of the terminals under shortest-path
    distances over `info.adj`: (matched pairs (i, j), Dijkstra predecessors
    whose row i reaches j on a shortest path)."""
    t = terminals.size
    if t < SMALL_T:  # no limit, so every pair is found
        dist, pred = dijkstra(info.adj, indices=terminals, return_predecessors=True)
        # distances are exact integers (`_prepare_weights`)
        d_t = dist[:, terminals].astype(np.int64)
        return _match_terminals(d_t, np.ones((t, t), dtype=bool))[0], pred
    radii, rows = _first_radii(info, gmin, terminals), np.arange(t)
    d_t, lim, pred = np.empty((t, t)), np.empty(t), np.empty((t, info.face_count), dtype=np.int32)
    solved = None  # the pairs the last matching is optimal over; None solves again
    for repairs in itertools.count():
        _search(info, terminals, rows, radii, d_t, pred, lim)
        own = d_t < np.inf  # row i reached terminal j within lim_i
        found = own | own.T
        d_in = np.where(own, d_t, d_t.T)
        if solved is not None:
            # the solver leaves w_ij >= pi_i + pi_j - z_ij with z >= 0, so new
            # pairs no shorter than their price keep its dual feasible
            i, j = np.nonzero(found & ~solved)
            solved = None if (d_in[i, j] < pi[i] + pi[j]).any() else found
        if solved is None:
            d_in[~found] = 0
            pairs, pi = _match_terminals(d_in.astype(np.int64), found)
            # the potentials are exact half-integers below 2**51
            exact = np.abs(pi).max() < 2**51
            solved = found if exact else None
        if found.all():
            break
        unfound = [k for i, j in pairs if not found[i, j] for k in (i, j)]
        if unfound:  # sentinel-sized potentials: find the mates, then match again
            rows, radii, solved = np.array(unfound), np.full(t, np.inf), None
            continue
        # a pair that no row found is longer than max(lim_i, lim_j), so a
        # price pi_i + pi_j at most that keeps the dual feasible for it
        price = np.add.outer(pi, pi)
        bad = ~found & (price > lim[:, None]) & (price > lim[None, :])
        if exact and not bad.any():
            break
        if exact and repairs < REPAIR_ROUNDS:
            # raise both ends of each violating pair to its price
            rows = np.flatnonzero(bad.any(axis=1))
            radii = np.max(price, axis=1, where=bad, initial=-np.inf)
        else:
            rows, radii = np.flatnonzero(lim < np.inf), np.full(t, np.inf)
        del price, bad
    # a row that reached the other end holds an exactly shortest path to it
    return [(i, j) if own[i, j] else (j, i) for i, j in pairs], pred


def _solve_even_subgraph(graph: PlanarGraph, w: np.ndarray):
    """Minimum-weight even subgraph of the dual == min 2-colorable cut.

    `w` is int64 with the head-room of `_prepare_weights`.
    Returns (cut bool array, value in the same units as w).
    """
    info = _dual_info(graph)
    cut = w < 0
    # a bridge's two sides are one face, which it adds 2 to
    deg = np.bincount(graph.edge_face_ids[cut].ravel(), minlength=info.face_count)
    terminals = (deg & 1).nonzero()[0]
    if terminals.size:
        wa = np.abs(w[info.sorted_edges], dtype=float)
        gmin = np.minimum.reduceat(wa, info.group_starts)
        # representative edge per face pair: first group member achieving gmin
        pos = np.where(wa <= gmin[info.group_of], info.positions, wa.size)
        rep_edges = info.sorted_edges[np.minimum.reduceat(pos, info.group_starts)]

        with info.lock:
            np.take(gmin, info.slot_group, out=info.adj.data)
            pairs, pred = _search_and_match(info, gmin, terminals)

        # walk each matched path; a dual edge used an odd number of times flips
        fc, ends = info.face_count, terminals.tolist()
        steps = []
        for i, j in pairs:
            src, p = ends[i], ends[j]
            while p != src:
                q = pred.item(i, p)
                steps.append(min(p, q) * fc + max(p, q))
                p = q
        groups = np.searchsorted(info.group_key, steps)
        odd = np.bincount(groups, minlength=info.group_key.size) % 2 == 1
        cut[rep_edges[odd]] ^= True
    value = w[cut].sum()
    return cut, value


MAX_DIGITS = 9  # the largest power of ten `scale_to_int` tries
_POWERS = 10.0 ** np.arange(MAX_DIGITS + 1)[:, None]


def scale_to_int(values):
    """Return (int64 array, 10**digits) if all values are short decimals.

    Tries scales 10**0 .. 10**MAX_DIGITS and accepts the first one under
    which every value is (numerically) an integer.  Returns None when the
    inputs are not decimal-representable at that precision.
    """
    arr = np.asarray(values, dtype=float)
    # values that are not finite, or above about 1.8e299 and overflow at the
    # larger scales, leave inf - inf = NaN, which fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = _POWERS * arr
        rounded = np.rint(scaled)
        # a true decimal leaves only float64 representation error (~1e-16
        # relative); anything larger means the value is not this decimal.
        # In place: 1e-12 * max(1, |scaled|) against |scaled - rounded|
        tol = np.abs(scaled)
        np.maximum(tol, 1.0, out=tol)
        tol *= 1e-12
        scaled -= rounded
        passing = (np.abs(scaled, out=scaled) <= tol).all(axis=1)
    digits = int(passing.argmax())  # the first passing scale, if any
    if passing[digits] and np.abs(rounded[digits]).max(initial=0) < 2**52:
        return rounded[digits].astype(np.int64), 10**digits
    return None


def _abs_sum(ints: np.ndarray) -> int:
    """sum |ints|, exactly: in int64 when E * max|int| < 2**63, so that the
    sum cannot wrap, else over Python ints."""
    a = np.abs(ints)
    if a.size * int(a.max(initial=0)) < 2**63:
        return int(a.sum())
    return sum(a.tolist())


def _prepare_weights(w, graph: PlanarGraph):
    """(int64 weights, scale, the weights solved, int64 / scale exactly):
    w for short decimals with head-room, else w rounded up onto the finest
    power-of-two grid, of step 1 / scale, with head-room, which leaves its
    own result unchanged.  Head-room: path sums 2 sum|int64| + 1 < 2**53,
    even with min_cut_forced's M, and 16 times the matching's sentinel
    over F + 1 terminals below 2**62 (`matching.match_dense`).  The graph's
    dual data keep the last result under the key of w.  Raises ValueError
    unless w is finite with one entry per edge."""
    w = np.asarray(w, dtype=float)
    if w.shape != (graph.edge_count,):
        raise ValueError("weight vector must have one entry per edge")
    info, key = _dual_info(graph), w.tobytes()
    prepared = info.prepared
    if key != prepared[0]:  # an input equal to an earlier one is finite
        # the largest sum|int64| with head-room
        budget = min(2**52 - 1, ((2**57 - 1) // (graph.face_count + 1) - 1) // 2)
        scaled = scale_to_int(w)  # None unless w is finite
        on_grid = scaled is None or _abs_sum(scaled[0]) > budget
        if on_grid:
            finite_weights(w)
            # sum|ceil(2**k w)| > 2**k sum|w| - m, so no grid 2**-k finer than
            # the first one tried fits; sum|w| over 2**top stays finite
            top = int(np.frexp(np.abs(w).max())[1])
            k = int(np.frexp((budget + w.size) / np.ldexp(np.abs(w), -top).sum())[1]) - top
            while _abs_sum(ints := np.ceil(np.ldexp(w, k)).astype(np.int64)) > budget:
                k -= 1
            scaled = ints, 2.0**k
        info.prepared = prepared = (key, *scaled, on_grid)
    _, ints, scale, on_grid = prepared
    return ints, scale, ints / scale if on_grid else w


def min_cut_2color(graph: PlanarGraph, w) -> tuple[np.ndarray, float]:
    """Minimum-weight bipartition cut (the empty cut is allowed), exact for
    the weights rounded up to the grid (`_prepare_weights`).  The returned
    value is always <= 0.
    """
    w, scale, _ = _prepare_weights(w, graph)
    cut, val = _solve_even_subgraph(graph, w)
    return cut, float(val) / scale


def min_cut_forced(graph: PlanarGraph, w, e: int) -> tuple[np.ndarray, float]:
    """Minimum-weight bipartition cut among those cutting edge `e`, exact
    for the weights rounded up to the grid (`min_cut_2color`).

    Makes `e` cheaper than any cut avoiding it can be (subtract
    M = 1 + sum|w|), solves the unconstrained problem and adds M back.
    Raises OracleError if the solution misses `e`.
    """
    w, scale, _ = _prepare_weights(w, graph)
    # a bool is an int to Python, but numpy indexes with it as a mask
    if isinstance(e, bool) or not isinstance(e, (int, np.integer)):
        raise ValueError(f"edge id must be an integer, got {e!r}")
    if not (0 <= e < graph.edge_count):
        raise ValueError(f"edge id {e} out of range")
    big = 1 + np.abs(w).sum()
    w2 = w.copy()
    w2[e] -= big
    cut, val = _solve_even_subgraph(graph, w2)
    if not cut[e]:
        raise OracleError(f"forced cut misses edge {e}")
    return cut, float(val + big) / scale


def split_into_basic_cuts(graph: PlanarGraph, x) -> list[np.ndarray]:
    """Isolating cut of every component of the (repaired) multicut.

    The elementwise OR of the returned cuts equals the repaired input cut;
    each returned cut is 2-colorable.  On a connected graph two components
    share an isolating cut only when they make up the whole graph, so two
    components give one cut and k > 2 components give k distinct cuts.
    """
    x = np.asarray(x, dtype=bool)
    labels = partition_from_cut(graph, x)
    k = int(labels.max()) + 1
    if k <= 1:
        return []
    lt = labels[graph.tail]
    lh = labels[graph.head]
    return [(lt == c) ^ (lh == c) for c in range(1 if k == 2 else k)]
