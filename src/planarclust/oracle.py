"""Brute-force and exhaustive reference solvers for desk-scale instances.

Everything here is ground truth for the tests: exact optima by explicit
enumeration (set partitions, bipartitions, k-labelings), an exact frontier
dynamic program that reaches slightly larger instances than raw
enumeration, the two-versus-four-color inequality checks, and the bound LP
solved with its complete (exponential) constraint set.

Guards are hard errors: an oracle must never silently approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import PlanarGraph, canonical_labels, cut_energy
from .lp import LpProblem, solve_lp


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


def exact_cc_value(graph: PlanarGraph, theta) -> float:
    """Exact optimum by a frontier DP that eliminates vertices in id order.

    States are set partitions of the boundary between processed and
    unprocessed vertices, so the cost is sum_i Bell(frontier_i); grids,
    numbered row-major, have frontier width+1.  Raises TooLarge when the
    state space would explode.  Cross-checked against brute_cc in the tests.
    """
    n = graph.vertex_count
    theta = np.asarray(theta, dtype=float)

    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(graph.endpoints.tolist()):
        adj[u].append((v, theta[e]))
        adj[v].append((u, theta[e]))

    # frontier after step v: processed vertices with an unprocessed neighbor
    last_needed = [max([v] + [u for u, _ in adj[v]]) for v in range(n)]

    states: dict[tuple, float] = {(): 0.0}
    frontier: list[int] = []
    for v in range(n):
        back = [(frontier.index(u), w) for u, w in adj[v] if u < v]
        keep = [j for j, u in enumerate(frontier) if last_needed[u] > v]
        keep_self = last_needed[v] > v
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
            raise TooLarge("frontier DP state space too large for this vertex numbering")
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


def check_coloring_chain(graph: PlanarGraph, theta) -> ColoringChainReport:
    """Verify 0 >= CC2 >= CC4 >= 1.5*CC2 and the pair-merge identity, to 1e-9.

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
    tol = 1e-9
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
