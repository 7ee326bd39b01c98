"""Brute-force and exhaustive reference solvers for desk-scale instances.

Everything here is ground truth for the tests: exact optima by explicit
enumeration (set partitions, bipartitions, k-labelings), an exact frontier
dynamic program that reaches slightly larger instances than raw
enumeration, the two-versus-four-color inequality checks, and the bound LP
solved with its complete (exponential) constraint set.

`expand_dual` builds the explicit matching gadget (one clique per face, a
parity hub on odd faces, one weight-carrying edge per original edge) whose
perfect matchings are in weight-preserving bijection with the 2-colorable
cuts; one general-graph matching on it is a reference route for the dual
T-join oracle in `cut_oracle.py`.  Convention: an original edge is cut iff
its gadget edge IS in the matching.

The gadget is an edge-list graph, so it is matched through
`min_weight_perfect_matching`, a wrapper around the dense solver
`matching.match_dense`: it keeps the cheapest of parallel edges, masks
missing ones, and scales the weights to 64-bit integers whenever every
input weight is a decimal with at most nine fractional digits, so
matchings on instance weights are computed in exact arithmetic.

Guards are hard errors: an oracle must never silently approximate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .cut_oracle import OracleError, scale_to_int
from .graph import PlanarGraph, canonical_labels, cut_energy
from .lp import LpProblem, solve_lp
from .matching import MatchingError, match_dense


class TooLarge(ValueError):
    """Instance exceeds an enumeration guard."""


def set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth label tuples."""
    labels = [0] * n
    maxes = [0] * n

    def rec(i):
        if i == n:
            yield tuple(labels)
            return
        top = maxes[i - 1] if i > 0 else -1
        for b in range(top + 2):
            labels[i] = b
            maxes[i] = max(top, b)
            yield from rec(i + 1)

    yield from rec(0)


def brute_cc(graph: PlanarGraph, theta) -> tuple[np.ndarray, float]:
    """Exact optimum over all set partitions of the vertices (V <= 12)."""
    n = graph.vertex_count
    if n > 12:
        raise TooLarge(f"brute_cc enumerates set partitions; V={n} > 12")
    theta = np.asarray(theta, dtype=float)
    best_val = 0.0
    best = np.zeros(n, dtype=np.int64)
    tail, head = graph.tail, graph.head
    for labels in set_partitions(n):
        lab = np.asarray(labels)
        val = float(theta @ (lab[tail] != lab[head]))
        if val < best_val:
            best_val = val
            best = lab
    return canonical_labels(best), best_val


def exact_cc_value(graph: PlanarGraph, theta, order=None) -> float:
    """Exact optimum by a frontier DP over a vertex elimination order.

    States are set partitions of the boundary between processed and
    unprocessed vertices, so the cost is sum_i Bell(frontier_i); grids in
    row-major order have frontier width+1.  Raises TooLarge when the state
    space would explode.  Cross-checked against brute_cc in the tests.
    """
    n = graph.vertex_count
    theta = np.asarray(theta, dtype=float)
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}

    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(graph.edges):
        adj[u].append((v, theta[e]))
        adj[v].append((u, theta[e]))

    # frontier after step i: processed vertices with an unprocessed neighbor
    last_needed = [pos[v] for v in range(n)]
    for v in range(n):
        for u, _ in adj[v]:
            last_needed[v] = max(last_needed[v], pos[u])

    states: dict[tuple, float] = {(): 0.0}
    frontier: list[int] = []
    for i, v in enumerate(order):
        back = [(frontier.index(u), w) for u, w in adj[v] if pos[u] < i]
        keep = [j for j, u in enumerate(frontier) if last_needed[u] > i]
        keep_self = last_needed[v] > i
        new_states: dict[tuple, float] = {}
        for state, cost in states.items():
            nblocks = (max(state) + 1) if state else 0
            for b in range(nblocks + 1):
                c2 = cost
                for j, w in back:
                    if state[j] != b:
                        c2 += w
                labels = [state[j] for j in keep]
                if keep_self:
                    labels.append(b)
                # canonicalize by first occurrence
                remap: dict[int, int] = {}
                key = tuple(remap.setdefault(x, len(remap)) for x in labels)
                old = new_states.get(key)
                if old is None or c2 < old:
                    new_states[key] = c2
        states = new_states
        if len(states) > 2_000_000:
            raise TooLarge("frontier DP state space too large for this order")
        frontier = [frontier[j] for j in keep] + ([v] if keep_self else [])
    return min(states.values())


def brute_cc2(graph: PlanarGraph, theta) -> tuple[np.ndarray, float]:
    """Exact minimum over all 2^(V-1) bipartitions, empty cut included."""
    n = graph.vertex_count
    if n > 20:
        raise TooLarge(f"brute_cc2 enumerates bipartitions; V={n} > 20")
    theta = np.asarray(theta, dtype=float)
    tail, head = graph.tail, graph.head
    best_val = 0.0
    best_mask = 0
    total = 1 << (n - 1) if n > 1 else 1
    chunk = 1 << 16
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        # vertex 0 fixed on side 0; bit v-1 of mask = side of vertex v
        sides = np.zeros((masks.size, n), dtype=bool)
        for v in range(1, n):
            sides[:, v] = (masks >> (v - 1)) & 1
        cuts = sides[:, tail] != sides[:, head]
        vals = cuts @ theta
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_mask = int(masks[i])
    sides = np.zeros(n, dtype=bool)
    for v in range(1, n):
        sides[v] = (best_mask >> (v - 1)) & 1
    cut = sides[tail] != sides[head]
    return cut, best_val


def _brute_cck_labels(graph: PlanarGraph, theta, k: int) -> tuple[np.ndarray, float]:
    n = graph.vertex_count
    if k**n > 10**7:
        raise TooLarge(f"brute_cck enumerates k^V labelings; {k}^{n} > 1e7")
    theta = np.asarray(theta, dtype=float)
    tail, head = graph.tail, graph.head
    total = k**n
    best_val = 0.0
    best_code = 0
    chunk = 1 << 14
    powers = k ** np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        labels = (codes[:, None] // powers[None, :]) % k
        cuts = labels[:, tail] != labels[:, head]
        vals = cuts @ theta
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_code = int(codes[i])
    labels = (best_code // powers) % k
    return labels.astype(np.int64), best_val


def brute_cck(graph: PlanarGraph, theta, k: int) -> float:
    """Exact minimum over k-labelings (guard: k^V <= 1e7)."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return 0.0
    return _brute_cck_labels(graph, theta, k)[1]


@dataclass(frozen=True)
class ColoringChainReport:
    cc2: float
    cc4: float
    merged_energies: tuple[float, float, float]
    chain_ok: bool
    corollary_ok: bool
    merge_identity_ok: bool

    @property
    def ok(self) -> bool:
        return self.chain_ok and self.corollary_ok and self.merge_identity_ok


def check_coloring_chain(graph: PlanarGraph, theta, tol: float = 1e-9) -> ColoringChainReport:
    """Verify 0 >= CC2 >= CC4 >= 1.5*CC2 and the pair-merge identity.

    From an optimal 4-labeling, merging label pairs {12|34}, {13|24},
    {14|23} yields three 2-colorings whose energies sum to twice the
    4-coloring optimum; each is also an upper bound for CC2.
    """
    theta = np.asarray(theta, dtype=float)
    _, cc2 = brute_cc2(graph, theta)
    labels4, cc4 = _brute_cck_labels(graph, theta, 4)
    merges = ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))
    energies = []
    for merge in merges:
        m = np.asarray(merge)
        two = m[labels4]
        energies.append(cut_energy(graph, theta, two[graph.tail] != two[graph.head]))
    e_a, e_b, e_c = energies
    chain_ok = (
        0 >= cc2 - tol
        and cc2 >= cc4 - tol
        and cc4 >= 1.5 * cc2 - tol
        and all(e >= cc2 - tol for e in energies)
    )
    corollary_ok = (abs(cc2) > tol) or (abs(cc4) <= tol)
    merge_identity_ok = abs(cc4 - 0.5 * (e_a + e_b + e_c)) <= tol
    report = ColoringChainReport(cc2, cc4, (e_a, e_b, e_c), chain_ok, corollary_ok, merge_identity_ok)
    if not report.ok:
        raise RuntimeError(f"two/four-coloring inequality violated: {report}")
    return report


def all_bipartition_cuts(graph: PlanarGraph) -> np.ndarray:
    """All nonempty bipartition cut indicator rows (V <= 10 guard)."""
    n = graph.vertex_count
    if n > 10:
        raise TooLarge(f"cut enumeration needs 2^(V-1) rows; V={n} > 10")
    tail, head = graph.tail, graph.head
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    sides = np.zeros((masks.size, n), dtype=bool)
    for v in range(1, n):
        sides[:, v] = (masks >> (v - 1)) & 1
    return sides[:, tail] != sides[:, head]


def full_lp_bound(graph: PlanarGraph, theta, with_upper_bounds: bool) -> float:
    """Bound LP with the complete cut constraint set.

    maximize sum(theta - lam) s.t. lam >= theta, lam . X >= 0 for every
    bipartition cut X, optionally lam <= max(0, theta).  Dropping the upper
    bounds must not change the value; the tests verify that.
    """
    theta = np.asarray(theta, dtype=float)
    rows = all_bipartition_cuts(graph)
    m = graph.edge_count
    upper = np.maximum(theta, 0.0) if with_upper_bounds else np.full(m, np.inf)
    problem = LpProblem(
        objective=-np.ones(m),
        lower=theta,
        upper=upper,
        constraints=rows,
        rhs=np.zeros(rows.shape[0]),
    )
    return float(theta.sum() + solve_lp(problem).objective_value)


# -- explicit matching gadget (reference route) --------------------------


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

    Raises OddVertexCount for odd vertex counts and NoPerfectMatching when
    the graph has none.  Among co-optimal matchings the result is
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
    wvals = weights if scaled is None else scaled[0]
    w = np.zeros((n, n), dtype=wvals.dtype)
    w[lo[rep], hi[rep]] = w[hi[rep], lo[rep]] = wvals[rep]
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


_gadget_cache: "weakref.WeakKeyDictionary[PlanarGraph, tuple]" = weakref.WeakKeyDictionary()


def _gadget_topology(graph: PlanarGraph):
    """Weight-independent gadget structure, cached per graph."""
    cached = _gadget_cache.get(graph)
    if cached is not None:
        return cached
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
    internal = []
    for ports, hub in zip(face_ports, face_hub):
        members = list(ports) + ([hub] if hub >= 0 else [])
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                internal.append((members[i], members[j]))
    cached = (n_gadget, tuple(tuple(p) for p in ports_of_edge), tuple(face_ports), tuple(face_hub), tuple(internal))
    _gadget_cache[graph] = cached
    return cached


def expand_dual(graph: PlanarGraph, w) -> ExpandedDual:
    w = np.asarray(w, dtype=float)
    n_gadget, ports_of_edge, face_ports, face_hub, internal = _gadget_topology(graph)

    edges = []
    back_map = []
    edge_ports = []
    for e in range(graph.edge_count):
        p1, p2 = ports_of_edge[e]
        edges.append((p1, p2, float(w[e])))
        back_map.append(e)
        edge_ports.append((p1, p2))
    for a, b in internal:
        edges.append((a, b, 0.0))
        back_map.append(None)

    return ExpandedDual(
        problem=MatchingProblem(n_gadget, tuple(edges)),
        back_map=tuple(back_map),
        edge_ports=tuple(edge_ports),
        face_ports=face_ports,
        face_hub=face_hub,
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
