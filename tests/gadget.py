"""The explicit matching gadget: a reference route for the cut oracle.

`expand_dual` builds the explicit matching gadget (one clique per face, a
parity hub on odd faces, one weight-carrying edge per original edge) whose
perfect matchings are in weight-preserving bijection with the 2-colorable
cuts; one general-graph matching on it is a reference route for the dual
T-join oracle in `cut_oracle.py`.  Convention: an original edge is cut iff
its gadget edge IS in the matching.

The gadget is an edge-list graph, so it is matched through
`min_weight_perfect_matching`, a wrapper around the dense solver
`matching.match_dense`: it keeps the cheapest of parallel edges, masks
missing ones, and scales the weights, decimals with at most nine
fractional digits, to 64-bit integers, so matchings on instance weights
are computed in exact arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from planarclust.cut_oracle import OracleError, scale_to_int
from planarclust.graph import PlanarGraph
from planarclust.matching import MatchingError, match_dense


class OddVertexCount(MatchingError):
    """Perfect matchings require an even number of vertices."""


class NoPerfectMatching(MatchingError):
    """The graph admits no perfect matching."""


@dataclass(frozen=True)
class MatchingProblem:
    """A weighted undirected graph; weights may be negative."""

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "edges",
            tuple((int(u), int(v), float(w)) for u, v, w in self.edges),
        )
        for u, v, w in self.edges:
            if u == v:
                raise MatchingError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise MatchingError(f"edge ({u}, {v}) out of range")
            if not np.isfinite(w):
                raise MatchingError("edge weights must be finite")


@dataclass(frozen=True)
class Matching:
    """A perfect matching: member edge indices and their total weight."""

    matched_edges: frozenset[int]
    total_weight: float


def min_weight_perfect_matching(problem: MatchingProblem) -> Matching:
    """Exact minimum-weight perfect matching.

    Raises OddVertexCount for odd vertex counts, NoPerfectMatching when
    the graph has none and ValueError for weights that are not short
    decimals (`scale_to_int`).  Among co-optimal matchings the result is
    deterministic (fixed scan order); only the total weight is contractual.
    """
    n = problem.vertex_count
    if n <= 0:
        raise MatchingError("vertex_count must be positive")
    if n % 2 != 0:
        raise OddVertexCount(f"vertex_count {n} is odd")

    # Pick one representative per vertex pair: minimum weight, then lowest
    # edge index, so parallel inputs behave deterministically.
    uv = np.array([(u, v) for u, v, _ in problem.edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array([w for _, _, w in problem.edges], dtype=float)
    lo, hi = uv.min(axis=1), uv.max(axis=1)
    key = lo * n + hi
    order = np.lexsort((np.arange(key.size), weights, key))
    rep = order[np.unique(key[order], return_index=True)[1]]
    rep_of = np.full((n, n), -1, dtype=np.int64)
    rep_of[lo[rep], hi[rep]] = rep_of[hi[rep], lo[rep]] = rep

    scaled = scale_to_int(weights)
    if scaled is None:
        raise ValueError("gadget weights must be short decimals")
    w = np.zeros((n, n), dtype=np.int64)
    w[lo[rep], hi[rep]] = w[hi[rep], lo[rep]] = scaled[0][rep]
    mate, _ = match_dense(w, rep_of >= 0)
    v = np.flatnonzero(np.arange(n) < mate)
    matched = rep_of[v, mate[v]]
    if (matched < 0).any():
        raise NoPerfectMatching("no perfect matching exists")
    total = float(weights[matched].sum()) if matched.size else 0.0
    return Matching(matched_edges=frozenset(matched.tolist()), total_weight=total)


@dataclass(frozen=True)
class ExpandedDual:
    """Gadget graph whose perfect matchings correspond to 2-colorable cuts.

    back_map[k] is the original edge id carried by gadget edge k, or None
    for gadget-internal (zero weight) edges.  A cut X maps to matchings of
    total weight sum(w_e * X_e).
    """

    problem: MatchingProblem
    back_map: tuple
    edge_ports: tuple[tuple[int, int], ...]
    face_ports: tuple[tuple[int, ...], ...]
    face_hub: tuple[int, ...]  # -1 when the face has even degree


def expand_dual(graph: PlanarGraph, w) -> ExpandedDual:
    w = np.asarray(w, dtype=float)
    ports_of_edge: list[list[int]] = [[] for _ in range(graph.edge_count)]
    face_ports = []
    face_hub = []
    n_gadget = 0
    for cycle in graph.faces:
        ports = []
        for e in cycle:
            ports.append(n_gadget)
            ports_of_edge[e].append(n_gadget)
            n_gadget += 1
        hub = -1
        if len(cycle) % 2 == 1:
            hub = n_gadget
            n_gadget += 1
        face_ports.append(tuple(ports))
        face_hub.append(hub)

    edges = []
    back_map = []
    edge_ports = []
    for e in range(graph.edge_count):
        p1, p2 = ports_of_edge[e]
        edges.append((p1, p2, float(w[e])))
        back_map.append(e)
        edge_ports.append((p1, p2))
    for ports, hub in zip(face_ports, face_hub):
        members = list(ports) + ([hub] if hub >= 0 else [])
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                edges.append((members[i], members[j], 0.0))
                back_map.append(None)

    return ExpandedDual(
        problem=MatchingProblem(n_gadget, tuple(edges)),
        back_map=tuple(back_map),
        edge_ports=tuple(edge_ports),
        face_ports=tuple(face_ports),
        face_hub=tuple(face_hub),
    )


def min_cut_2color_via_gadget(graph: PlanarGraph, w) -> tuple[np.ndarray, float]:
    """Reference oracle: one perfect matching on the full gadget graph."""
    xd = expand_dual(graph, w)
    m = min_weight_perfect_matching(xd.problem)
    cut = np.zeros(graph.edge_count, dtype=bool)
    for k in m.matched_edges:
        e = xd.back_map[k]
        if e is not None:
            cut[e] = True
    return cut, m.total_weight


def matching_for_cut(xd: ExpandedDual, x) -> Matching:
    """Explicit perfect matching of the gadget realizing the cut x.

    Only defined for 2-colorable cuts (even dual degree per face); used to
    verify the gadget's weight-preserving bijection.
    """
    x = np.asarray(x, dtype=bool)
    used = set()
    chosen = []
    # for a bridge, its two ports sit in one face and the gadget holds both
    # the weight-carrying edge and a parallel zero clique edge; completion
    # must use the internal one
    internal = {}
    for k, (u, v, _) in enumerate(xd.problem.edges):
        if xd.back_map[k] is None:
            internal[(u, v) if u < v else (v, u)] = k
    for e, cut_flag in enumerate(x):
        if cut_flag:
            if xd.back_map[e] != e:
                raise OracleError(f"gadget edge {e} does not carry original edge {e}")
            chosen.append(e)
            p1, p2 = xd.edge_ports[e]
            used.add(p1)
            used.add(p2)
    for ports, hub in zip(xd.face_ports, xd.face_hub):
        rest = [p for p in ports if p not in used]
        if hub >= 0:
            rest.append(hub)
        if len(rest) % 2 != 0:
            raise ValueError("cut is not 2-colorable: odd face parity")
        for i in range(0, len(rest), 2):
            a, b = rest[i], rest[i + 1]
            chosen.append(internal[(min(a, b), max(a, b))])
    weights = [xd.problem.edges[k][2] for k in chosen]
    covered = sorted(v for k in chosen for v in xd.problem.edges[k][:2])
    if covered != list(range(xd.problem.vertex_count)):
        raise ValueError("construction failed to cover every gadget vertex")
    return Matching(matched_edges=frozenset(chosen), total_weight=float(sum(weights)))
