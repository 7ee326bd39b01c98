"""Planar graphs with an explicit combinatorial embedding, plus cut algebra.

A graph is described by its edge list and a rotation system: for every
vertex, the counterclockwise cyclic order of its incident edges.  Faces are
never supplied by the caller; they are derived by tracing dart orbits of the
rotation system.  Euler's formula V - E + F = 2 on the derived faces then
certifies that the rotation system describes a sphere (plane) embedding, so
no separate planarity test is needed.

A graph keeps its topology in flat int64 arrays: an (E, 2) endpoint array,
the rotation system and the face cycles as CSR (start, index) pairs, and an
(E, 2) array of the two faces beside each edge.  Tuples of Python ints held
a 28x28 grid's graph in about 550 KB, and a benchmark keeps many graphs
alive; the arrays take about 110 KB.  `edges`, `rotation`, `faces` and
`edge_faces` read the same data as tuples, built on each access, for
serialization and tests; the package's own readers use the arrays.

Cuts are represented as boolean vectors indexed by edge id, partitions as
integer label vectors indexed by vertex id.  Labels are always canonicalized
by first occurrence in vertex order so that equality tests are deterministic.
Partitions of a cut come from a union-find over numpy arrays: the oracle
and both decoders ask for many, and a sparse matrix per call cost more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction failures."""


class MalformedInput(GraphError):
    """Edge list or rotation system is structurally invalid."""


class EulerViolation(GraphError):
    """Derived faces do not satisfy V - E + F = 2 (not a plane embedding)."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _csr_tuples(start: np.ndarray, index: np.ndarray) -> tuple[tuple[int, ...], ...]:
    s, idx = start.tolist(), index.tolist()
    return tuple(tuple(idx[a:b]) for a, b in zip(s, s[1:]))


@dataclass(frozen=True, eq=False)
class PlanarGraph:
    """Immutable embedded planar graph.

    Attributes, read-only int64 arrays:
        endpoints: (E, 2), edge k joins tail endpoints[k, 0] and head
            endpoints[k, 1]; column-major, so `tail` and `head` are
            contiguous views.
        rotation_start, rotation_index: the rotation system as CSR; vertex
            v's CCW cyclic order of incident edge ids is
            rotation_index[rotation_start[v]:rotation_start[v + 1]].
        face_start, face_index: the derived face cycles, as CSR of edge ids.
        edge_face_ids: (E, 2), column-major, the faces that edge k's dart
            tail->head and its dart head->tail trace (equal for a bridge).

    `edges`, `rotation`, `faces` and `edge_faces` give the same data as
    tuples of tuples of ints, built on each access.
    """

    vertex_count: int
    endpoints: np.ndarray = field(repr=False)
    rotation_start: np.ndarray = field(repr=False)
    rotation_index: np.ndarray = field(repr=False)
    face_start: np.ndarray = field(repr=False)
    face_index: np.ndarray = field(repr=False)
    edge_face_ids: np.ndarray = field(repr=False)

    @property
    def tail(self) -> np.ndarray:
        return self.endpoints[:, 0]

    @property
    def head(self) -> np.ndarray:
        return self.endpoints[:, 1]

    @property
    def edge_count(self) -> int:
        return self.endpoints.shape[0]

    @property
    def face_count(self) -> int:
        return self.face_start.size - 1

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.endpoints.tolist()))

    @property
    def rotation(self) -> tuple[tuple[int, ...], ...]:
        return _csr_tuples(self.rotation_start, self.rotation_index)

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return _csr_tuples(self.face_start, self.face_index)

    @property
    def edge_faces(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_face_ids.tolist()))


def _edge_error(vertex_count: int, edges) -> str:
    """The first fault of the edge list, by the checks in order: endpoint
    out of range, self-loop, repeat of an earlier edge; '' if none."""
    seen = set()
    for k, (u, v) in enumerate(edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            return f"edge {k} endpoint out of range: ({u}, {v})"
        if u == v:
            return f"edge {k} is a self-loop at vertex {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"parallel edge {k}: {key} appears twice"
        seen.add(key)
    return ""


def _rotation_error(edges, rotation) -> str:
    """The first fault of the rotation system, by the checks in order: an
    entry naming an unknown edge, repeating its list's edge or not incident,
    then an edge missing from a list; '' if none."""
    listed = [set() for _ in rotation]
    for v, rot in enumerate(rotation):
        for e in rot:
            if not (0 <= e < len(edges)):
                return f"rotation of vertex {v} names unknown edge {e}"
            if e in listed[v]:
                return f"rotation of vertex {v} repeats edge {e}"
            if v not in edges[e]:
                return f"edge {e} in rotation of {v} is not incident"
            listed[v].add(e)
    for k, (u, v) in enumerate(edges):
        if k not in listed[u] or k not in listed[v]:
            return f"edge {k} missing from a rotation list"
    return ""


def _arrivals(endpoints: np.ndarray, vertex: np.ndarray, index: np.ndarray):
    """Per rotation entry p, the dart arriving at vertex[p] along edge
    index[p]; None unless the rotation lists each edge once at each end and
    nothing else."""
    m = endpoints.shape[0]
    if not ((index >= 0) & (index < m)).all():
        return None
    at_tail = endpoints[index, 0] == vertex
    darts = 2 * index + at_tail
    if (at_tail | (endpoints[index, 1] == vertex)).all() and (
        np.bincount(darts, minlength=2 * m) == 1
    ).all():
        return darts
    return None


def spanning_forest(vertex_count: int, edges) -> list[bool]:
    """Kruskal's union-find sweep: per edge, in order, whether it joins two
    components of the edges before it.  The joining edges form a spanning
    forest, so the graph has vertex_count minus their number of components."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        joins.append(ru != rv)
        parent[ru] = rv
    return joins


def _trace_faces(vertex, start, arrivals):
    """Trace dart orbits of the rotation system: (face_start, face_index,
    edge_face_ids).

    Dart 2k is edge k traversed tail->head, dart 2k+1 head->tail; the
    rotation entry p at x = vertex[p] is reached by dart arrivals[p].  From
    a dart ending at x via edge e, the face continues along the edge
    following e in the rotation at x, leaving x.  Orbits of this successor
    map are the faces, numbered in the order of their least dart and traced
    from it.
    """
    m = arrivals.size // 2
    after = np.arange(2 * m) + 1  # the rotation entry after each, cyclically
    wrap = after == start[vertex + 1]
    after[wrap] = start[vertex[wrap]]
    successor = np.empty(2 * m, dtype=np.int64)
    # the dart leaving x along an edge is the one arriving at x, reversed
    successor[arrivals] = arrivals[after] ^ 1

    successor = successor.tolist()
    face_of_dart = [-1] * (2 * m)
    darts, face_start = [], [0]
    for d0 in range(2 * m):
        if face_of_dart[d0] >= 0:
            continue
        d = d0
        while face_of_dart[d] < 0:
            face_of_dart[d] = len(face_start) - 1
            darts.append(d)
            d = successor[d]
        face_start.append(len(darts))
    return (
        np.array(face_start, dtype=np.int64),
        np.array(darts, dtype=np.int64) // 2,
        np.asfortranarray(np.array(face_of_dart, dtype=np.int64).reshape(m, 2)),
    )


def build_graph(vertex_count, edges, rotation) -> PlanarGraph:
    """Validate inputs, derive faces, check Euler's formula.

    Raises MalformedInput for structural problems (loops, parallel edges,
    disconnected graph, inconsistent rotation) and EulerViolation when the
    traced faces show the rotation system is not a plane embedding.  The
    checks run on arrays; only a failing one walks the input in Python, to
    name the first fault.
    """
    endpoints = np.array(edges, dtype=np.int64)
    if endpoints.size and (endpoints.ndim != 2 or endpoints.shape[1] != 2):
        raise MalformedInput("edges must be (u, v) pairs")
    endpoints = np.asfortranarray(endpoints.reshape(-1, 2))
    m = endpoints.shape[0]
    lengths = np.array([len(rot) for rot in rotation], dtype=np.int64)
    index = np.array([e for rot in rotation for e in rot], dtype=np.int64)
    if lengths.size != vertex_count:
        raise MalformedInput("rotation must list every vertex")
    if vertex_count <= 0:
        raise MalformedInput("vertex_count must be positive")
    tail, head = endpoints[:, 0], endpoints[:, 1]
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    if m and not (
        lo.min() >= 0 and hi.max() < vertex_count and (lo < hi).all()
        and np.unique(lo * vertex_count + hi).size == m
    ):
        raise MalformedInput(_edge_error(vertex_count, endpoints.tolist()))
    n_comp = int(_components(vertex_count, tail, head).max()) + 1
    if n_comp != 1:
        raise MalformedInput(f"graph is disconnected ({n_comp} components)")
    start = np.concatenate(([0], np.cumsum(lengths)))
    vertex = np.repeat(np.arange(vertex_count), lengths)
    arrivals = _arrivals(endpoints, vertex, index)
    if arrivals is None:
        raise MalformedInput(_rotation_error(endpoints.tolist(), _csr_tuples(start, index)))
    face_start, face_index, edge_face_ids = _trace_faces(vertex, start, arrivals)
    if not m:  # a lone vertex: one face, bounded by no edge
        face_start = np.zeros(2, dtype=np.int64)
    f = face_start.size - 1
    if vertex_count - m + f != 2:
        raise EulerViolation(
            f"V - E + F = {vertex_count} - {m} + {f} != 2; "
            "rotation system is not a plane embedding"
        )
    return PlanarGraph(
        vertex_count=int(vertex_count),
        endpoints=_read_only(endpoints),
        rotation_start=_read_only(start),
        rotation_index=_read_only(index),
        face_start=_read_only(face_start),
        face_index=_read_only(face_index),
        edge_face_ids=_read_only(edge_face_ids),
    )


def finite_weights(w) -> np.ndarray:
    """`w` as a float array; ValueError if a weight is NaN or infinite."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("edge weights must be finite")
    return w


def cut_energy(graph: PlanarGraph, theta: np.ndarray, x: np.ndarray) -> float:
    """Total weight of cut edges, sum(theta_e * x_e).  No validity check."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x)
    if theta.shape != (graph.edge_count,) or x.shape != (graph.edge_count,):
        raise ValueError("theta and cut vector must have one entry per edge")
    return float(theta @ x.astype(float))


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber cluster labels by first occurrence in vertex order."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    k = int(labels.max()) + 1 if n else 0
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n))
    order = np.argsort(first[np.unique(labels)], kind="stable")
    used = np.unique(labels)
    rank = np.empty(k, dtype=np.int64)
    rank[used[order]] = np.arange(len(used))
    return rank[labels]


def _components(vertex_count: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of the edges (u[k], v[k]), canonical labels.

    A vectorized union-find: each root is hooked to the smaller root across
    every edge, then pointers jump until nothing changes.  Every vertex ends
    up holding the smallest vertex id of its component, so the rank of that
    id among the roots is already the first-occurrence label.
    """
    root = np.arange(vertex_count)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            return (np.cumsum(root == np.arange(vertex_count)) - 1)[root]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def partition_from_cut(graph: PlanarGraph, x: np.ndarray) -> np.ndarray:
    """Connected components of the subgraph of uncut edges, canonical labels."""
    keep = ~np.asarray(x, dtype=bool)
    if keep.shape != (graph.edge_count,):
        raise ValueError("cut vector must have one entry per edge")
    return _components(graph.vertex_count, graph.tail[keep], graph.head[keep])


def cut_from_partition(graph: PlanarGraph, labels: np.ndarray) -> np.ndarray:
    """Indicator of edges whose endpoints carry different labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.vertex_count,):
        raise ValueError("labels must have one entry per vertex")
    return labels[graph.tail] != labels[graph.head]
