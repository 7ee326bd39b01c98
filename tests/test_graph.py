import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from planarclust.graph import (
    EulerViolation,
    MalformedInput,
    build_graph,
    canonical_labels,
    cut_energy,
    cut_from_partition,
    partition_from_cut,
)
from planarclust.instances import GpbLikeWeights, gen_grid

from conftest import edge_masks, planar_graphs
from multicuts import is_valid_multicut, repair_cut, same_clustering

def test_triangle_faces(triangle):
    assert triangle.face_count == 2
    assert triangle.vertex_count - triangle.edge_count + triangle.face_count == 2
    for f1, f2 in triangle.edge_faces:
        assert f1 != f2


def test_four_cycle_faces(four_cycle):
    assert four_cycle.face_count == 2


def test_k4_faces(k4):
    assert k4.face_count == 4  # 4 - 6 + 4 = 2


def test_bridge_edge_has_one_face(star3):
    # trees have a single face; every edge borders it twice
    assert star3.face_count == 1
    for f1, f2 in star3.edge_faces:
        assert f1 == f2 == 0


def test_k5_rejected():
    edges = list(itertools.combinations(range(5), 2))
    # any rotation system of K5 must fail the Euler check
    rng = np.random.default_rng(2)
    for _ in range(20):
        rotation = []
        for v in range(5):
            inc = [k for k, (a, b) in enumerate(edges) if v in (a, b)]
            rotation.append(tuple(rng.permutation(inc).tolist()))
        with pytest.raises(EulerViolation):
            build_graph(5, edges, rotation)


def test_k33_rejected():
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    rotation = []
    for v in range(6):
        rotation.append(tuple(k for k, (a, b) in enumerate(edges) if v in (a, b)))
    with pytest.raises(EulerViolation):
        build_graph(6, edges, rotation)


def test_malformed_inputs():
    with pytest.raises(MalformedInput):
        build_graph(2, [(0, 0)], [(0,), ()])  # self loop
    with pytest.raises(MalformedInput):
        build_graph(2, [(0, 1), (1, 0)], [(0, 1), (0, 1)])  # parallel
    with pytest.raises(MalformedInput):
        build_graph(4, [(0, 1), (2, 3)], [(0,), (0,), (1,), (1,)])  # disconnected
    with pytest.raises(MalformedInput):
        build_graph(3, [(0, 1), (1, 2)], [(0,), (0,), (1,)])  # rotation of 1 incomplete
    with pytest.raises(MalformedInput):
        build_graph(3, [(0, 1), (1, 2)], [(0,), (0, 1, 1), (1,)])  # repeated edge


K33 = [(a, b) for a in range(3) for b in range(3, 6)]


@pytest.mark.parametrize(
    "vertex_count, edges, rotation, error, message",
    [
        # the messages of the tuple-based checks, which walked the input in
        # order and named its first fault
        (0, [], [], MalformedInput, "vertex_count must be positive"),
        (2, [(0, 1)], [(0,)], MalformedInput, "rotation must list every vertex"),
        (3, [(0, 1), (1, 3)], [(0,), (0, 1), (1,)], MalformedInput,
         "edge 1 endpoint out of range: (1, 3)"),
        (3, [(0, 1), (-1, 2)], [(0,), (0, 1), (1,)], MalformedInput,
         "edge 1 endpoint out of range: (-1, 2)"),
        (2, [(0, 0)], [(0,), ()], MalformedInput, "edge 0 is a self-loop at vertex 0"),
        (2, [(0, 1), (1, 0)], [(0, 1), (0, 1)], MalformedInput,
         "parallel edge 1: (0, 1) appears twice"),
        (3, [(0, 1), (1, 1), (5, 2)], [(0,), (0, 1), (2,)], MalformedInput,
         "edge 1 is a self-loop at vertex 1"),
        (3, [(0, 1), (2, 1), (1, 2)], [(0,), (0, 1, 2), (1, 2)], MalformedInput,
         "parallel edge 2: (1, 2) appears twice"),
        (4, [(0, 1), (2, 3)], [(0,), (0,), (1,), (1,)], MalformedInput,
         "graph is disconnected (2 components)"),
        (4, [(0, 1), (2, 3)], [(9,), (0,), (1,), (1, 1)], MalformedInput,
         "graph is disconnected (2 components)"),
        (3, [(0, 1), (1, 2)], [(0,), (0, 7), (1,)], MalformedInput,
         "rotation of vertex 1 names unknown edge 7"),
        (3, [(0, 1), (1, 2)], [(-1,), (0, 1), (1,)], MalformedInput,
         "rotation of vertex 0 names unknown edge -1"),
        (3, [(0, 1), (1, 2)], [(0,), (0, 1, 1), (1,)], MalformedInput,
         "rotation of vertex 1 repeats edge 1"),
        (3, [(0, 1), (1, 2)], [(0,), (0, 1), (0,)], MalformedInput,
         "edge 0 in rotation of 2 is not incident"),
        (3, [(0, 1), (1, 2)], [(0, 1), (0, 1), (1,)], MalformedInput,
         "edge 1 in rotation of 0 is not incident"),
        (3, [(0, 1), (1, 2)], [(0,), (0,), (1,)], MalformedInput,
         "edge 1 missing from a rotation list"),
        (6, K33, [tuple(k for k, e in enumerate(K33) if v in e) for v in range(6)],
         EulerViolation, "V - E + F = 6 - 9 + 3 != 2; rotation system is not a plane embedding"),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
         [(0, 4, 3), (0, 1, 5), (1, 4, 2), (2, 5, 3)],
         EulerViolation, "V - E + F = 4 - 6 + 2 != 2; rotation system is not a plane embedding"),
    ],
)
def test_build_graph_names_the_first_fault(vertex_count, edges, rotation, error, message):
    with pytest.raises(error) as info:
        build_graph(vertex_count, edges, rotation)
    assert type(info.value) is error and str(info.value) == message


def test_a_lone_vertex_has_one_face_and_an_empty_rotation():
    g = build_graph(1, [], [()])
    assert (g.edge_count, g.face_count, g.faces, g.rotation) == (0, 1, ((),), ((),))
    # its rotation used to go unchecked
    with pytest.raises(MalformedInput, match="rotation of vertex 0 names unknown edge 5"):
        build_graph(1, [], [(5,)])


def _traced_faces(vertex_count, edges, rotation):
    """The dart orbits of a rotation system, traced on tuples as the graph
    used to be built: (faces, edge_faces)."""
    pos = [{e: i for i, e in enumerate(rot)} for rot in rotation]
    next_dart = {}
    for k, (u, v) in enumerate(edges):
        for dart, x in ((2 * k, v), (2 * k + 1, u)):
            rot = rotation[x]
            e2 = rot[(pos[x][k] + 1) % len(rot)]
            next_dart[dart] = 2 * e2 if edges[e2][0] == x else 2 * e2 + 1
    face_of_dart, faces = {}, []
    for d0 in range(2 * len(edges)):
        cycle, d = [], d0
        while d not in face_of_dart:
            face_of_dart[d] = len(faces)
            cycle.append(d // 2)
            d = next_dart[d]
        if cycle:
            faces.append(tuple(cycle))
    edge_faces = tuple((face_of_dart[2 * k], face_of_dart[2 * k + 1]) for k in range(len(edges)))
    return tuple(faces), edge_faces


@given(planar_graphs)
def test_tuple_views_match_the_traced_tuples(g):
    assert (g.faces, g.edge_faces) == _traced_faces(g.vertex_count, g.edges, g.rotation)
    assert (g.edge_count, g.face_count) == (len(g.edges), len(g.faces))
    assert g.tail.tolist() == [u for u, _ in g.edges] and g.head.tolist() == [v for _, v in g.edges]
    again = build_graph(g.vertex_count, g.edges, g.rotation)
    for name in ("edges", "rotation", "faces", "edge_faces"):
        assert getattr(again, name) == getattr(g, name)


def test_the_arrays_are_read_only(k4):
    for a in (k4.endpoints, k4.rotation_start, k4.rotation_index, k4.face_start,
              k4.face_index, k4.edge_face_ids, k4.tail):
        with pytest.raises(ValueError):
            a[0] = 1


def test_a_28x28_instance_keeps_under_150_kb():
    # tuples of Python ints held one in about 550 KB
    gen_grid(28, 28, GpbLikeWeights(0.27), seed=0)  # first-call imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        inst = gen_grid(28, 28, GpbLikeWeights(0.27), seed=0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert inst.graph.edge_count == 2 * 28 * 27
    assert kept <= 150 * 1024


def test_cut_energy(triangle):
    theta = np.array([-1.0, -1.0, -1.0])
    assert cut_energy(triangle, theta, np.array([1, 1, 1], bool)) == -3
    assert cut_energy(triangle, theta, np.zeros(3, bool)) == 0
    assert cut_energy(triangle, theta, np.array([1, 1, 0], bool)) == -2


def test_partition_from_cut(triangle, four_cycle):
    p = partition_from_cut(triangle, np.array([1, 1, 1], bool))
    assert len(set(p.tolist())) == 3
    p = partition_from_cut(triangle, np.array([1, 0, 0], bool))
    assert len(set(p.tolist())) == 1
    # cutting opposite edges of the 4-cycle: e0=(0,1), e2=(2,3)
    p = partition_from_cut(four_cycle, np.array([1, 0, 1, 0], bool))
    assert sorted(np.bincount(p).tolist()) == [2, 2]


def test_cut_from_partition(triangle, four_cycle):
    x = cut_from_partition(triangle, np.array([0, 1, 2]))
    assert x.all()
    x = cut_from_partition(triangle, np.array([0, 0, 0]))
    assert not x.any()
    x = cut_from_partition(four_cycle, np.array([0, 0, 1, 1]))
    assert x.tolist() == [False, True, False, True]


def test_is_valid_multicut(triangle):
    assert is_valid_multicut(triangle, np.array([1, 1, 0], bool))
    assert not is_valid_multicut(triangle, np.array([1, 0, 0], bool))
    assert is_valid_multicut(triangle, np.zeros(3, bool))


def test_canonical_labels():
    assert canonical_labels(np.array([5, 5, 2, 7, 2])).tolist() == [0, 0, 1, 2, 1]


def test_partition_cut_round_trip(k4):
    rng = np.random.default_rng(0)
    for _ in range(50):
        labels = rng.integers(0, 3, size=4)
        x = cut_from_partition(k4, labels)
        p = partition_from_cut(k4, x)
        assert same_clustering(p, canonical_labels(labels))
        assert is_valid_multicut(k4, x)


def test_repair_is_below(k4):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.random(6) < 0.5
        repaired = repair_cut(k4, x)
        assert not (repaired & ~x).any()
        assert is_valid_multicut(k4, repaired)


def _partition_via_sparse(graph, x):
    """The former route: scipy's connected components, then canonical labels."""
    keep = ~x
    n = graph.vertex_count
    data = np.ones(int(keep.sum()), dtype=np.int8)
    adj = csr_matrix((data, (graph.tail[keep], graph.head[keep])), shape=(n, n))
    return canonical_labels(connected_components(adj, directed=False)[1])


@given(st.data())
def test_partition_from_cut_matches_sparse_components(data):
    graph = data.draw(planar_graphs)
    x = data.draw(edge_masks(graph.edge_count))
    labels = partition_from_cut(graph, x)
    ref = _partition_via_sparse(graph, x)
    assert labels.dtype == ref.dtype
    assert np.array_equal(labels, ref)
