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

The rounding's reference is decimal's: quantize the shortest repr of x at
1e-5, half to even.  Most weights take a fast path over arrays: with
y = x * 1e5 and k = rint(y), the result k / 1e5.  It is exact wherever
|y| < 2**52 and the fractional part of |y| lies more than
2**-40 * max(|y|, 1) from 1/2: there x, its repr and the computed y all
lie on one side of the half, and k / 1e5 is the correctly rounded double
of k * 10**-5, as decimal's float() is.  The other weights, near-ties and
large ones, take the decimal path.

Generation and graph construction run over arrays (`_grid_topology`, the
CSR rotation system, `graph.graph_from_arrays`).  `_trace_faces` keeps its
Python orbit walk: an array version would add fixed cost on desk-scale
graphs of 10-20 vertices.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .graph import (
    PlanarGraph,
    _csr_tuples,
    _shown,
    build_graph,
    check_integers,
    check_seeds,
    graph_from_arrays,
    spanning_forest,
)

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
    x = arr.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # huge weights take the slow path
        y = x * 1e5
        out = np.rint(y) / 1e5
        a = np.abs(y)
        fast = (a < 2.0**52) & (np.abs(a - np.floor(a) - 0.5) > 2.0**-40 * np.maximum(a, 1.0))
    if not fast.all():
        q = Decimal("0.00001")
        try:
            out[~fast] = [
                float(Decimal(repr(v)).quantize(q, rounding=ROUND_HALF_EVEN)) for v in x[~fast].tolist()
            ]
        except InvalidOperation:
            raise DomainError("weights of magnitude 1e23 or more do not round to five decimals") from None
    return out.reshape(arr.shape)


def _rotation_csr(vertex_count, ends, pos):
    """`rotation_from_positions` as CSR (start, index) int64 arrays."""
    vertex, other = ends.ravel(), ends[:, ::-1].ravel()
    d = pos[other] - pos[vertex]
    edge = np.arange(vertex.size) // 2
    order = np.lexsort((edge, np.arctan2(d[:, 1], d[:, 0]), vertex))
    start = np.concatenate(([0], np.cumsum(np.bincount(vertex, minlength=vertex_count))))
    return start, edge[order]


def rotation_from_positions(vertex_count, edges, pos):
    """CCW rotation system read off vertex coordinates: each vertex's edges
    by the angle of their other end, ties by edge id."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return _csr_tuples(*_rotation_csr(vertex_count, ends, np.asarray(pos, dtype=float)))


def _graph_from_positions(vertex_count, ends, pos) -> PlanarGraph:
    """The graph on edges `ends`, embedded by the vertex coordinates `pos`."""
    return graph_from_arrays(vertex_count, ends, *_rotation_csr(vertex_count, ends, pos))


def _check_finite(model, **values) -> None:
    """ValueError unless each field of `model` is a real number, DomainError
    unless it is finite."""
    for name, x in values.items():
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            raise ValueError(f"{type(model).__name__}.{name} must be a real number, got {_shown(x)}")
        if not math.isfinite(x):
            raise DomainError(
                f"{type(model).__name__}.{name} must be finite, got {_shown(x)}: "
                "the weights must be finite"
            )


@dataclass(frozen=True)
class UniformWeights:
    """Independent uniform weights on [a, b]."""

    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        _check_finite(self, a=self.a, b=self.b)
        if not (self.a <= self.b and math.isfinite(float(self.b) - float(self.a))):
            raise ValueError(
                f"UniformWeights needs a <= b and a finite b - a, got a={_shown(self.a)}, b={_shown(self.b)}"
            )

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

    def __post_init__(self):
        _check_finite(self, beta=self.beta)

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
        # gpb_to_theta's operations over arrays, but libm's log, not np.log,
        # whose last bit may differ and move a rounding near a tie
        ratio = (1.0 - gpb) / gpb
        return np.array(list(map(math.log, ratio.tolist()))) + self.beta


def _grid_topology(width: int, height: int):
    """(E, 2) int64 edges, in vertex order each vertex's edge to the right,
    then its edge down, and (V, 2) float positions (column, row)."""
    vid = np.arange(width * height).reshape(height, width)
    ends = np.full((height, width, 2, 2), -1, dtype=np.int64)
    ends[:, :-1, 0] = np.stack((vid[:, :-1], vid[:, 1:]), axis=-1)
    ends[:-1, :, 1] = np.stack((vid[:-1], vid[1:]), axis=-1)
    ends = ends.reshape(-1, 2)
    pos = np.stack((vid % width, vid // width), axis=-1).reshape(-1, 2).astype(float)
    return ends[ends[:, 0] >= 0], pos


# squared distances per block of `_nearest_site`'s rows (0.5 MB).  Without
# blocks, gen_grid(120, 120) peaked at 77 MB of tracemalloc, and at 117 MB
# with the V x R x 2 array of coordinate differences
BLOCK = 1 << 16


def _nearest_site(pos, sites) -> np.ndarray:
    """Per position, the index of the nearest site by squared distance, the
    first on a tie.  Each distance is one rounded sum of two squares, as a
    sum over a (V, R, 2) array's last axis is, so blocks pick the same sites."""
    sx, sy = sites[:, 0], sites[:, 1]
    rows = max(1, BLOCK // len(sites))
    nearest = np.empty(len(pos), dtype=np.int64)
    for i in range(0, len(pos), rows):
        cx, cy = pos[i:i + rows, :1], pos[i:i + rows, 1:]
        nearest[i:i + rows] = np.argmin((cx - sx) ** 2 + (cy - sy) ** 2, axis=1)
    return nearest


def gen_grid(width: int, height: int, weight_model, seed: int) -> Instance:
    """Grid instance with a canonical embedding; deterministic in seed."""
    check_integers(width=width, height=height)
    width, height = int(width), int(height)  # numpy integers are sizes too, but not JSON
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    check_seeds(seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges, pos = _grid_topology(width, height)
    graph = _graph_from_positions(width * height, edges, pos)

    n_regions = max(2, (width * height) // 45)
    seeds = rng.uniform(0.0, 1.0, size=(n_regions, 2)) * [width - 1, height - 1]
    regions = _nearest_site(pos, seeds)

    theta = round_theta(weight_model.sample(rng, graph, regions))
    name = f"grid{width}x{height}-{_model_tag(weight_model)}-s{seed}"
    meta = {
        "generator": "grid",
        "width": width,
        "height": height,
        "seed": int(seed),  # numpy integers are seeds too, but not JSON
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
    check_integers(n=n)
    n = int(n)  # numpy integers are sizes too, but not JSON
    if n < 3:
        raise ValueError("need at least 3 vertices")
    check_seeds(seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    while True:
        points = rng.random((n, 2))
        try:
            tri = Delaunay(points)
        except QhullError:  # degenerate (collinear) sample: redraw
            continue
        if len(np.unique(tri.simplices)) == n:
            break
    sides = np.sort(tri.simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges = np.unique(sides, axis=0)

    target = int(rng.integers(n - 1, max(n, len(edges)) + 1))
    order = rng.permutation(len(edges))
    # reverse-delete: an edge may go when the edges after it in `order` join its ends
    joins = np.array(spanning_forest(n, edges[order[::-1]].tolist())[::-1])
    final_edges = np.delete(edges, order[~joins][: len(edges) - target], axis=0)
    graph = _graph_from_positions(n, final_edges, points)
    theta = round_theta(rng.uniform(-1.0, 1.0, size=len(final_edges)))
    return Instance(
        graph=graph,
        theta=theta,
        name=f"planar{n}-s{seed}",
        metadata={"generator": "random_planar", "n": n, "seed": int(seed)},
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
