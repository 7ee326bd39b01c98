import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from planarclust.graph import build_graph
from planarclust.instances import GpbLikeWeights, gen_grid, gen_random_planar, rotation_from_positions


# derandomized: every run draws the same examples, so a failure reproduces
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")


# random planar graphs (sparsified down to trees at times, so with bridges)
# and small GPB grids
planar_graphs = st.one_of(
    st.builds(gen_random_planar, st.integers(3, 20), st.integers(0, 2**32 - 1)),
    st.builds(
        gen_grid, st.integers(2, 6), st.integers(2, 6), st.just(GpbLikeWeights(0.27)),
        st.integers(0, 2**32 - 1),
    ),
).map(lambda inst: inst.graph)


def edge_masks(edge_count):
    """Boolean per-edge vectors, with the all-false and all-true extremes."""
    return st.one_of(
        st.just(np.zeros(edge_count, dtype=bool)),
        st.just(np.ones(edge_count, dtype=bool)),
        st.lists(st.booleans(), min_size=edge_count, max_size=edge_count).map(
            lambda bits: np.array(bits, dtype=bool)
        ),
    )


def load_compare_results():
    """scripts/compare_results.py as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_results.py"
    spec = importlib.util.spec_from_file_location("compare_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def embedded(vertex_count, edges, pos):
    return build_graph(vertex_count, edges, rotation_from_positions(vertex_count, edges, pos))


def brute_force_min_perfect(n, edges):
    """Recursive enumeration of all perfect matchings; exact reference.

    Returns (weight, edge index set) or None when no perfect matching
    exists.
    """
    adj = {}
    for k, (u, v, w) in enumerate(edges):
        key = (min(u, v), max(u, v))
        if key not in adj or w < adj[key][0]:
            adj[key] = (w, k)

    best = [None]

    def rec(unmatched, weight, chosen):
        if not unmatched:
            if best[0] is None or weight < best[0][0]:
                best[0] = (weight, set(chosen))
            return
        u = unmatched[0]
        rest = unmatched[1:]
        for i, v in enumerate(rest):
            key = (min(u, v), max(u, v))
            if key in adj:
                w, k = adj[key]
                rec(rest[:i] + rest[i + 1:], weight + w, chosen + [k])

    rec(list(range(n)), 0.0, [])
    return best[0]


@pytest.fixture
def triangle():
    # edges: e0=(0,1), e1=(1,2), e2=(0,2)
    return embedded(3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (1, 0), (0.5, 1)])


@pytest.fixture
def four_cycle():
    # e0=(0,1), e1=(1,2), e2=(2,3), e3=(3,0)
    return embedded(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def k4():
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
    pos = [(0, 0), (2, 0), (1, 1.8), (1, 0.6)]
    return embedded(4, edges, pos)


@pytest.fixture
def star3():
    # K_{1,3}: center 0
    return embedded(4, [(0, 1), (0, 2), (0, 3)], [(0, 0), (1, 0), (-0.5, 0.9), (-0.5, -0.9)])


def arr(*xs):
    return np.asarray(xs, dtype=float)
