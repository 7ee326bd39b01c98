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

The distances come from one Dijkstra run per odd face over the whole dual,
O(T·F) for T odd faces and F faces, on a directed CSR pattern that is built
once per topology; a call only fills in the edge weights.  On small graphs
the fixed cost per call dominates, which is why the pattern is cached.

Weights that scale to integers (short decimals, `scale_to_int`) are solved
in exact int64 arithmetic, other weights in float64; the matching solver
only reads the dtype chosen here.  The independent reference route
through an explicit matching gadget lives in `oracle.py`.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import PlanarGraph, partition_from_cut
from .matching import match_dense


class OracleError(RuntimeError):
    """The oracle's result violates a condition it guarantees."""


_dual_cache: "weakref.WeakKeyDictionary[PlanarGraph, _DualInfo]" = weakref.WeakKeyDictionary()


class _DualInfo:
    """Per-topology data reused across weight vectors."""

    def __init__(self, graph: PlanarGraph):
        m = graph.edge_count
        f1 = np.fromiter((a for a, _ in graph.edge_faces), dtype=np.int64, count=m)
        f2 = np.fromiter((b for _, b in graph.edge_faces), dtype=np.int64, count=m)
        self.f1, self.f2 = f1, f2
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
        group_lo, group_hi = lo[order][starts], hi[order][starts]
        # sorted face-pair key per group: lookup of the group joining two faces
        self.group_key = group_lo * graph.face_count + group_hi
        self.face_count = graph.face_count
        # directed dual adjacency: both directions of every group, rows sorted
        # by column; int32, which scipy keeps without a copy per call
        rows, cols = np.r_[group_lo, group_hi], np.r_[group_hi, group_lo]
        slots = np.lexsort((cols, rows))
        self.slot_group = (slots % starts.size).astype(np.int32)
        self.indices = cols[slots].astype(np.int32)
        self.indptr = np.searchsorted(rows[slots], np.arange(graph.face_count + 1)).astype(np.int32)


def _dual_info(graph: PlanarGraph) -> _DualInfo:
    info = _dual_cache.get(graph)
    if info is None:
        info = _DualInfo(graph)
        _dual_cache[graph] = info
    return info


def _match_terminals(dist: np.ndarray):
    """Pairs of terminal indices forming a min-weight perfect matching."""
    t = dist.shape[0]
    if t == 2:
        return [(0, 1)]
    mate = match_dense(dist, ~np.eye(t, dtype=bool))
    return [(v, int(mate[v])) for v in range(t) if v < mate[v]]


def _solve_even_subgraph(graph: PlanarGraph, w: np.ndarray):
    """Minimum-weight even subgraph of the dual == min 2-colorable cut.

    `w` is int64 (exact arithmetic) or float64.
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
        reach = np.repeat(gmin, np.diff(np.r_[info.group_starts, wa.size]))
        is_min = wa <= reach
        pos = np.where(is_min, np.arange(wa.size), wa.size)
        rep_pos = np.minimum.reduceat(pos, info.group_starts)
        rep_edges = info.sorted_edges[rep_pos]

        adj = csr_matrix(
            (gmin[info.slot_group], info.indices, info.indptr),
            shape=(info.face_count, info.face_count),
        )
        dist, pred = dijkstra(
            adj, directed=True, indices=terminals, return_predecessors=True
        )
        d_t = dist[:, terminals]
        if np.issubdtype(w.dtype, np.integer):
            d_t = np.rint(d_t).astype(np.int64)

        # walk each matched path; a dual edge used an odd number of times flips
        fc = info.face_count
        steps = []
        for i, j in _match_terminals(d_t):
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
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64), 1
    if not np.all(np.isfinite(arr)):
        return None
    scaled = np.multiply.outer(10.0 ** np.arange(MAX_DIGITS + 1), arr)
    rounded = np.rint(scaled)
    # a true decimal leaves only float64 representation error (~1e-16
    # relative); anything larger means the value is not this decimal
    tol = 1e-12 * np.maximum(1.0, np.abs(scaled))
    passing = np.flatnonzero(np.all(np.abs(scaled - rounded) <= tol, axis=1))
    if passing.size and np.max(np.abs(rounded[passing[0]])) < 2**52:
        return rounded[passing[0]].astype(np.int64), 10 ** int(passing[0])
    return None


def _prepare_weights(w, edge_count: int):
    """(int64 weights, scale) when w * scale is integral, else (w, 1.0)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (edge_count,):
        raise ValueError("weight vector must have one entry per edge")
    scaled = scale_to_int(w)
    return scaled if scaled is not None else (w, 1.0)


def min_cut_2color(graph: PlanarGraph, w) -> tuple[np.ndarray, float]:
    """Minimum-weight bipartition cut (the empty cut is allowed).

    Exact in integer arithmetic whenever the weights are short decimals.
    The returned value is always <= 0.
    """
    w, scale = _prepare_weights(w, graph.edge_count)
    cut, val = _solve_even_subgraph(graph, w)
    return cut, float(val) / scale


def min_cut_forced(graph: PlanarGraph, w, e: int) -> tuple[np.ndarray, float]:
    """Minimum-weight bipartition cut among those cutting edge `e`.

    Implemented by making `e` cheaper than any cut avoiding it can be
    (subtract M = 1 + sum|w|), solving the unconstrained problem, and
    adding M back.  Raises OracleError if the solution misses `e`.
    """
    w, scale = _prepare_weights(w, graph.edge_count)
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
