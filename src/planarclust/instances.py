"""Instance generation, the log-odds weight transform, and serialization.

Grid instances mimic segmentation problems: a hidden partition of the grid
into contiguous regions drives per-edge boundary probabilities (high across
region boundaries, low inside, with noise and occasional clutter), which
the log-odds transform turns into signed weights.  Random planar instances
come from Delaunay triangulations of random points, sparsified by deleting
edges in a seeded order, down to a seeded count, while the graph stays
connected; the embedding is read directly off the coordinates.  One reverse
Kruskal sweep (`graph.spanning_forest`) finds those edges: an edge may go
exactly when the edges after it in the order join its ends, since an earlier
edge that stayed was a bridge at its turn and lies on no cycle through a later one.

Weights are rounded half-to-even to five decimals and serialized as decimal
strings, so instances round-trip bit exactly.  A weight that is not finite,
or of magnitude 1e23 or more (more than the 28 digits of decimal's default
context at five decimals), cannot be rounded and raises DomainError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

import numpy as np
from scipy.spatial import Delaunay

from .graph import PlanarGraph, build_graph, spanning_forest

FORMAT_VERSION = 1
# the fraction of a GPB-like grid's interior edges bumped into the ambiguous range
CLUTTER = 0.05


class DomainError(ValueError):
    pass


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class Instance:
    graph: PlanarGraph
    theta: np.ndarray
    name: str
    metadata: dict = field(default_factory=dict)


def gpb_to_theta(gpb: float, beta: float) -> float:
    """Log-odds transform: log((1-gpb)/gpb) + beta, natural log."""
    if not (0.0 < gpb < 1.0):
        raise DomainError(f"gpb must lie strictly inside (0, 1), got {gpb}")
    return math.log((1.0 - gpb) / gpb) + beta


def round_theta(theta) -> np.ndarray:
    """Round each weight half-to-even at 1e-5 (decimal semantics); DomainError
    on a weight that is not finite or of magnitude 1e23 or more."""
    arr = np.asarray(theta, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("weights must be finite to be rounded")
    q = Decimal("0.00001")
    try:
        out = np.array(
            [float(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_EVEN)) for x in arr.ravel()],
            dtype=float,
        )
    except InvalidOperation:
        raise DomainError("weights of magnitude 1e23 or more do not round to five decimals") from None
    return out.reshape(arr.shape)


def rotation_from_positions(vertex_count, edges, pos):
    """CCW rotation system read off vertex coordinates: each vertex's edges
    by the angle of their other end, ties by edge id."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pos = np.asarray(pos, dtype=float)
    vertex, other = ends.ravel(), ends[:, ::-1].ravel()
    d = pos[other] - pos[vertex]
    edge = np.arange(vertex.size) // 2
    order = np.lexsort((edge, np.arctan2(d[:, 1], d[:, 0]), vertex))
    bounds = np.cumsum(np.bincount(vertex, minlength=vertex_count)).tolist()
    listed = edge[order].tolist()
    return tuple(tuple(listed[a:b]) for a, b in zip([0, *bounds], bounds))


@dataclass(frozen=True)
class UniformWeights:
    """Independent uniform weights on [a, b]."""

    a: float = -1.0
    b: float = 1.0

    def sample(self, rng, graph, regions) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=graph.edge_count)


@dataclass(frozen=True)
class GpbLikeWeights:
    """Boundary-probability weights over a hidden region partition.

    Edges inside a region get low boundary probability, edges across
    regions high, both with noise; a CLUTTER fraction of interior edges is
    bumped into the ambiguous range (false boundary fragments).
    theta = log((1-gpb)/gpb) + beta.
    """

    beta: float

    def sample(self, rng, graph, regions) -> np.ndarray:
        m = graph.edge_count
        tail, head = graph.tail, graph.head
        cross = regions[tail] != regions[head]
        gpb = np.where(
            cross,
            rng.normal(0.82, 0.10, size=m),
            rng.normal(0.16, 0.07, size=m),
        )
        bump = (~cross) & (rng.random(m) < CLUTTER)
        gpb[bump] = rng.uniform(0.50, 0.75, size=int(bump.sum()))
        gpb = np.clip(gpb, 0.02, 0.98)
        return np.array([gpb_to_theta(g, self.beta) for g in gpb])


def _grid_topology(width: int, height: int):
    def vid(r, c):
        return r * width + c

    edges = []
    for r in range(height):
        for c in range(width):
            if c + 1 < width:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < height:
                edges.append((vid(r, c), vid(r + 1, c)))
    pos = [(c, r) for r in range(height) for c in range(width)]
    return edges, pos


def gen_grid(width: int, height: int, weight_model, seed: int) -> Instance:
    """Grid instance with a canonical embedding; deterministic in seed."""
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges, pos = _grid_topology(width, height)
    graph = build_graph(width * height, edges, rotation_from_positions(len(pos), edges, pos))

    n_regions = max(2, (width * height) // 45)
    seeds = rng.uniform(0.0, 1.0, size=(n_regions, 2)) * [width - 1, height - 1]
    coords = np.asarray(pos, dtype=float)
    d2 = ((coords[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    regions = np.argmin(d2, axis=1)

    theta = round_theta(weight_model.sample(rng, graph, regions))
    name = f"grid{width}x{height}-{_model_tag(weight_model)}-s{seed}"
    meta = {
        "generator": "grid",
        "width": width,
        "height": height,
        "seed": seed,
        "weight_model": _model_tag(weight_model),
    }
    return Instance(graph=graph, theta=theta, name=name, metadata=meta)


def _model_tag(model) -> str:
    if isinstance(model, UniformWeights):
        return f"uniform({model.a},{model.b})"
    if isinstance(model, GpbLikeWeights):
        return f"gpb(beta={model.beta})"
    return type(model).__name__


def gen_random_planar(n: int, seed: int) -> Instance:
    """Random connected planar instance: sparsified Delaunay triangulation."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = np.random.Generator(np.random.Philox(key=seed))
    while True:
        points = rng.random((n, 2))
        try:
            tri = Delaunay(points)
        except Exception:  # degenerate (collinear) sample: redraw
            continue
        if len(np.unique(tri.simplices)) == n:
            break
    sides = np.sort(tri.simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges = np.unique(sides, axis=0)

    target = int(rng.integers(n - 1, max(n, len(edges)) + 1))
    order = rng.permutation(len(edges))
    # reverse-delete: an edge may go when the edges after it in `order` join its ends
    joins = np.array(spanning_forest(n, edges[order[::-1]].tolist())[::-1])
    final_edges = np.delete(edges, order[~joins][: len(edges) - target], axis=0).tolist()
    graph = build_graph(n, final_edges, rotation_from_positions(n, final_edges, points))
    theta = round_theta(rng.uniform(-1.0, 1.0, size=len(final_edges)))
    return Instance(
        graph=graph,
        theta=theta,
        name=f"planar{n}-s{seed}",
        metadata={"generator": "random_planar", "n": n, "seed": seed},
    )


# -- serialization --------------------------------------------------------


def write_instance(instance: Instance, path) -> None:
    graph = instance.graph
    rotation = graph.rotation_index.tolist()
    bounds = graph.rotation_start.tolist()
    doc = {
        "format_version": FORMAT_VERSION,
        "name": instance.name,
        "vertex_count": graph.vertex_count,
        "edges": [
            [u, v, repr(t)]
            for (u, v), t in zip(graph.endpoints.tolist(), np.asarray(instance.theta, float).tolist())
        ],
        "rotation": [rotation[a:b] for a, b in zip(bounds, bounds[1:])],
        "metadata": instance.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_instance(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: instance document is not a JSON object")
    for key in ("vertex_count", "edges", "rotation"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field '{key}'")
    try:
        edges = [(u, v) for u, v, _ in doc["edges"]]
        theta = np.array([float(t) for _, _, t in doc["edges"]], dtype=float)
        rotation = tuple(tuple(r) for r in doc["rotation"])
    except (TypeError, ValueError, KeyError) as exc:
        raise ParseError(f"{path}: malformed field: {exc}") from exc
    ids = [doc["vertex_count"], *(x for e in edges for x in e), *(x for r in rotation for x in r)]
    # the type, not isinstance: JSON true and false are Python ints too
    if any(type(x) is not int for x in ids):
        raise ParseError(f"{path}: vertex_count, edge endpoints and rotation entries must be integers")
    if not np.isfinite(theta).all():
        raise ParseError(f"{path}: edge weights must be finite")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{path}: field 'metadata' is not a JSON object")
    graph = build_graph(doc["vertex_count"], edges, rotation)
    return Instance(
        graph=graph,
        theta=theta,
        name=str(doc.get("name", "unnamed")),
        metadata=metadata,
    )
