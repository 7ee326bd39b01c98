"""Planar graphs with an explicit combinatorial embedding, plus cut algebra.

A graph is described by its edge list and a rotation system: for every
vertex, the counterclockwise cyclic order of its incident edges.  Faces are
never supplied by the caller; they are derived by tracing dart orbits of the
rotation system.  Euler's formula V - E + F = 2 on the derived faces then
certifies that the rotation system describes a sphere (plane) embedding, so
no separate planarity test is needed.

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


@dataclass(frozen=True, eq=False)
class PlanarGraph:
    """Immutable embedded planar graph.

    Attributes:
        vertex_count: number of vertices, ids 0..vertex_count-1.
        edges: tuple of (u, v) pairs, ids 0..edge_count-1.
        rotation: per vertex, cyclic (CCW) tuple of incident edge ids.
        faces: derived face cycles, each a tuple of edge ids.
        edge_faces: per edge, the pair of face ids it borders
            (equal ids for a bridge).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]
    edge_faces: tuple[tuple[int, int], ...]
    tail: np.ndarray = field(repr=False)
    head: np.ndarray = field(repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)


def _check_edges(vertex_count: int, edges) -> None:
    if vertex_count <= 0:
        raise MalformedInput("vertex_count must be positive")
    seen = set()
    for k, (u, v) in enumerate(edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise MalformedInput(f"edge {k} endpoint out of range: ({u}, {v})")
        if u == v:
            raise MalformedInput(f"edge {k} is a self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise MalformedInput(f"parallel edge {k}: {key} appears twice")
        seen.add(key)


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


def _trace_faces(vertex_count, edges, rotation):
    """Trace dart orbits of the rotation system.

    Dart 2k is edge k traversed u->v, dart 2k+1 is v->u.  From a dart ending
    at vertex x via edge e, the face continues along the edge following e in
    the rotation at x.  Orbits of this successor map are the faces.
    """
    m = len(edges)
    pos = [dict() for _ in range(vertex_count)]  # vertex -> edge id -> slot
    for v in range(vertex_count):
        for i, e in enumerate(rotation[v]):
            if not (0 <= e < m):
                raise MalformedInput(f"rotation of vertex {v} names unknown edge {e}")
            if e in pos[v]:
                raise MalformedInput(f"rotation of vertex {v} repeats edge {e}")
            if v not in edges[e]:
                raise MalformedInput(f"edge {e} in rotation of {v} is not incident")
            pos[v][e] = i
    for k, (u, v) in enumerate(edges):
        if k not in pos[u] or k not in pos[v]:
            raise MalformedInput(f"edge {k} missing from a rotation list")

    next_dart = [0] * (2 * m)
    for k, (u, v) in enumerate(edges):
        for dart, x in ((2 * k, v), (2 * k + 1, u)):
            rot = rotation[x]
            e2 = rot[(pos[x][k] + 1) % len(rot)]
            a, b = edges[e2]
            # dart of e2 leaving x
            next_dart[dart] = 2 * e2 if a == x else 2 * e2 + 1

    face_of_dart = [-1] * (2 * m)
    faces = []
    for d0 in range(2 * m):
        if face_of_dart[d0] >= 0:
            continue
        fid = len(faces)
        cycle = []
        d = d0
        while face_of_dart[d] < 0:
            face_of_dart[d] = fid
            cycle.append(d // 2)
            d = next_dart[d]
        faces.append(tuple(cycle))
    edge_faces = tuple(
        (face_of_dart[2 * k], face_of_dart[2 * k + 1]) for k in range(m)
    )
    return tuple(faces), edge_faces


def build_graph(vertex_count, edges, rotation) -> PlanarGraph:
    """Validate inputs, derive faces, check Euler's formula.

    Raises MalformedInput for structural problems (loops, parallel edges,
    disconnected graph, inconsistent rotation) and EulerViolation when the
    traced faces show the rotation system is not a plane embedding.
    """
    edges = tuple((int(u), int(v)) for u, v in edges)
    rotation = tuple(tuple(int(e) for e in rot) for rot in rotation)
    if len(rotation) != vertex_count:
        raise MalformedInput("rotation must list every vertex")
    _check_edges(vertex_count, edges)
    n_comp = vertex_count - sum(spanning_forest(vertex_count, edges))
    if n_comp != 1:
        raise MalformedInput(f"graph is disconnected ({n_comp} components)")
    if not edges:
        faces, edge_faces = ((),), ()
    else:
        faces, edge_faces = _trace_faces(vertex_count, edges, rotation)
    f = len(faces)
    if vertex_count - len(edges) + f != 2:
        raise EulerViolation(
            f"V - E + F = {vertex_count} - {len(edges)} + {f} != 2; "
            "rotation system is not a plane embedding"
        )
    tail = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
    head = np.fromiter((v for _, v in edges), dtype=np.int64, count=len(edges))
    return PlanarGraph(
        vertex_count=vertex_count,
        edges=edges,
        rotation=rotation,
        faces=faces,
        edge_faces=edge_faces,
        tail=tail,
        head=head,
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


def partition_from_cut(graph: PlanarGraph, x: np.ndarray) -> np.ndarray:
    """Connected components of the subgraph of uncut edges, canonical labels.

    A vectorized union-find: each root is hooked to the smaller root across
    every uncut edge, then pointers jump until nothing changes.  Every
    vertex ends up holding the smallest vertex id of its component, so the
    rank of that id is already the first-occurrence label.
    """
    keep = ~np.asarray(x, dtype=bool)
    if keep.shape != (graph.edge_count,):
        raise ValueError("cut vector must have one entry per edge")
    u, v = graph.tail[keep], graph.head[keep]
    root = np.arange(graph.vertex_count)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            return np.unique(root, return_inverse=True)[1]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def cut_from_partition(graph: PlanarGraph, labels: np.ndarray) -> np.ndarray:
    """Indicator of edges whose endpoints carry different labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.vertex_count,):
        raise ValueError("labels must have one entry per vertex")
    return labels[graph.tail] != labels[graph.head]
