import itertools

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
