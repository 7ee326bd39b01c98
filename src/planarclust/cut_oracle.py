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
SMALL_T terminals up (below it the pricing costs more than the limit
saves), one multi-source run gives each terminal its nearest-other-terminal
distance exactly, through the dual edges between Voronoi cells, and lim_i
starts at LIMIT_FACTOR times it; rows are searched in quantile groups of
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
up to TABLE_T terminals the matching is not solved but looked up: a
table built at import lists every perfect matching ((T - 1)!! of them,
945 at T = 10), and one gather prices them all, in a fraction of a
blossom solve's per-call set-up.  Minimum matchings tie often on these
inputs, and the one returned decides the recursive decoder's forced
cuts, so ties go to the least sum of squared pair distances (the
shortest pairs), then to table order.  Every other matching goes to
`matching.match_dense`, the one entry to the blossom solver.

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


# below this many terminals the search starts without a limit.  Measured on
# the benchmark's oracle inputs: on planar graphs of up to 36 faces (at most
# 22 terminals) the limit lost at every terminal count; on 14x14 and 28x28
# grids it won from 8 terminals up.
SMALL_T = 24
# up to this many terminals the small path prices every perfect matching
# (`_least_in_table`): 7-13 us, where a blossom solve of 4-10 terminals took
# 207-520 us on planar-desk (2-core x86-64 host)
TABLE_T = 10
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
        self.f1, self.f2 = f1, f2 = graph.edge_face_ids[:, 0], graph.edge_face_ids[:, 1]
        self.loop_mask = f1 == f2  # bridges: dual self-loops
        nl = np.flatnonzero(~self.loop_mask)
        lo = np.minimum(f1[nl], f2[nl])
        hi = np.maximum(f1[nl], f2[nl])
        order = np.lexsort((hi, lo))
        self.sorted_edges = nl[order]
        if nl.size:
            key = lo[order] * graph.face_count + hi[order]
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        else:
            starts = np.zeros(0, dtype=np.int64)
        self.group_starts = starts
        self.group_sizes = np.diff(np.r_[starts, nl.size])
        self.group_lo, self.group_hi = group_lo, group_hi = lo[order][starts], hi[order][starts]
        # sorted face-pair key per group: lookup of the group joining two faces
        self.group_key = group_lo * graph.face_count + group_hi
        self.face_count = graph.face_count
        # directed dual adjacency: both directions of every group, rows sorted
        # by column; int32, which scipy keeps without a copy per call
        rows, cols = np.r_[group_lo, group_hi], np.r_[group_hi, group_lo]
        slots = np.lexsort((cols, rows))
        self.slot_group = (slots % starts.size).astype(np.int32)
        indices = cols[slots].astype(np.int32)
        indptr = np.searchsorted(rows[slots], np.arange(graph.face_count + 1)).astype(np.int32)
        # a call refills `adj.data` in place: building a csr_matrix costs
        # more than a small graph's searches.  `lock` guards it while in use.
        self.adj = csr_matrix(
            (np.zeros(indices.size), indices, indptr), shape=(graph.face_count, graph.face_count)
        )
        self.lock = threading.Lock()
        self.prepared: tuple = (None,)  # the last `_prepare_weights` key and result


def _dual_info(graph: PlanarGraph) -> _DualInfo:
    info = _dual_cache.get(graph)
    if info is None:
        info = _DualInfo(graph)
        _dual_cache[graph] = info
    return info


def _pairings(rest: tuple) -> list[list[tuple[int, int]]]:
    """Every perfect matching of `rest`: its first element paired with each
    later one in turn, then the matchings of what is left."""
    if not rest:
        return [[]]
    return [
        [(rest[0], rest[k]), *tail]
        for k in range(1, len(rest))
        for tail in _pairings(rest[1:k] + rest[k + 1 :])
    ]


# every perfect matching of range(t), even t <= TABLE_T, as one column of
# flat pair indices i * t + j (i < j); columns sum faster than rows
_TABLES = {
    t: np.array([[i * t + j for i, j in m] for m in _pairings(tuple(range(t)))]).T.copy()
    for t in range(2, TABLE_T + 1, 2)
}


def _least_in_table(dist: np.ndarray) -> list[tuple[int, int]]:
    """The perfect matching of least summed distance, by pricing every
    column of its table at once.  Among tied minima it takes the least sum
    of squared pair distances, so the shortest pairs, then the first in
    table order.  int64 sums are exact: at most TABLE_T / 2 terms below
    2**53."""
    t = dist.shape[0]
    table = _TABLES[t]
    d = dist.take(table)
    total = d.sum(axis=0)
    tied = np.flatnonzero(total == total.min())
    col = tied[0]
    if tied.size > 1:
        sq = d[:, tied].astype(float)
        col = tied[np.argmin((sq * sq).sum(axis=0))]
    return [divmod(k, t) for k in table[:, col].tolist()]


def _match_terminals(dist: np.ndarray, mask: np.ndarray):
    """Min-weight perfect matching of the terminals over the pairs in `mask`
    (its diagonal is ignored): (pairs of terminal indices, potentials).

    On the unlimited small path (fewer than SMALL_T terminals: every pair
    known, potentials unused) up to TABLE_T terminals are matched by
    `_least_in_table`, with potentials None, since a blossom solve's set-up
    there costs many times the table's pricing.  Minimum matchings tie
    often on those inputs and the one returned decides the recursive
    decoder's forced cuts, hence its shortest-pairs tie-break.  Every
    other call goes to `match_dense`, the one entry to the blossom solver."""
    t = dist.shape[0]
    if t < SMALL_T and t <= TABLE_T:
        return _least_in_table(dist), None
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
    neg = w < 0
    cut = neg.copy()

    neg_nl = neg & ~info.loop_mask
    deg = np.bincount(info.f1[neg_nl], minlength=info.face_count) + np.bincount(
        info.f2[neg_nl], minlength=info.face_count
    )
    terminals = np.flatnonzero(deg % 2 == 1)
    if terminals.size:
        wa = np.abs(w[info.sorted_edges]).astype(float)
        gmin = np.minimum.reduceat(wa, info.group_starts)
        # representative edge per face pair: first group member achieving gmin
        reach = np.repeat(gmin, info.group_sizes)
        is_min = wa <= reach
        pos = np.where(is_min, np.arange(wa.size), wa.size)
        rep_pos = np.minimum.reduceat(pos, info.group_starts)
        rep_edges = info.sorted_edges[rep_pos]

        with info.lock:
            np.take(gmin, info.slot_group, out=info.adj.data)
            pairs, pred = _search_and_match(info, gmin, terminals)

        # walk each matched path; a dual edge used an odd number of times flips
        fc = info.face_count
        steps = []
        for i, j in pairs:
            src = int(terminals[i])
            p = int(terminals[j])
            while p != src:
                q = int(pred[i, p])
                steps.append(min(p, q) * fc + max(p, q))
                p = q
        groups = np.searchsorted(info.group_key, steps)
        odd = np.bincount(groups, minlength=info.group_key.size) % 2 == 1
        cut[rep_edges[odd]] ^= True
    value = w[cut].sum()
    return cut, value


MAX_DIGITS = 9  # the largest power of ten `scale_to_int` tries


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
        scaled = np.multiply.outer(10.0 ** np.arange(MAX_DIGITS + 1), arr)
        rounded = np.rint(scaled)
        # a true decimal leaves only float64 representation error (~1e-16
        # relative); anything larger means the value is not this decimal
        tol = 1e-12 * np.maximum(1.0, np.abs(scaled))
        passing = np.flatnonzero(np.all(np.abs(scaled - rounded) <= tol, axis=1))
    if passing.size and np.abs(rounded[passing[0]]).max(initial=0) < 2**52:
        return rounded[passing[0]].astype(np.int64), 10 ** int(passing[0])
    return None


def _prepare_weights(w, graph: PlanarGraph):
    """(int64 weights, scale, the weights solved, int64 / scale exactly):
    w for short decimals with head-room, else w rounded up onto the finest
    power-of-two grid, of step 1 / scale, with head-room, which leaves its
    own result unchanged.  Head-room: path sums 2 sum|int64| + 1 < 2**53,
    even with min_cut_forced's M, and 16 times the matching's sentinel
    over F + 1 terminals below 2**62 (`matching.match_dense`).  The graph's
    dual data keep the last result: `bound.certified_bound` asks for the
    weights solved, then calls the oracle on them.  Raises ValueError
    unless w is finite with one entry per edge."""
    w = np.asarray(w, dtype=float)
    if w.shape != (graph.edge_count,):
        raise ValueError("weight vector must have one entry per edge")
    info, key = _dual_info(graph), w.tobytes()
    prepared = info.prepared
    if prepared[0] != key:  # an input equal to the last one is finite
        finite_weights(w)
        # the largest sum|int64| with head-room
        budget = min(2**52 - 1, ((2**57 - 1) // (graph.face_count + 1) - 1) // 2)
        scaled = scale_to_int(w)
        on_grid = scaled is None or sum(np.abs(scaled[0]).tolist()) > budget
        if on_grid:
            # sum|ceil(2**k w)| > 2**k sum|w| - m, so no grid 2**-k finer than
            # the first one tried fits; sum|w| over 2**top stays finite
            top = int(np.frexp(np.abs(w).max())[1])
            k = int(np.frexp((budget + w.size) / np.ldexp(np.abs(w), -top).sum())[1]) - top
            while sum(np.abs(ints := np.ceil(np.ldexp(w, k)).astype(np.int64)).tolist()) > budget:
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
