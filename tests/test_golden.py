import hashlib
from pathlib import Path

import numpy as np
import pytest

from planarclust.bound import optimize_lower_bound
from planarclust.decode import best_decode
from planarclust.instances import GpbLikeWeights, UniformWeights, gen_grid, gen_random_planar, read_instance

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden"


def test_golden_triangle():
    inst = read_instance(GOLDEN / "triangle.json")
    assert inst.graph.vertex_count == 3
    assert inst.theta.tolist() == [-1.0, -1.0, -1.0]
    br = optimize_lower_bound(inst.graph, inst.theta)
    res = best_decode(inst.graph, inst.theta, br)
    assert res.energy == pytest.approx(-3.0)
    assert res.certificate


def test_golden_grid():
    inst = read_instance(GOLDEN / "grid4x3.json")
    assert inst.graph.vertex_count == 12
    assert inst.graph.face_count == 1 + (4 - 1) * (3 - 1)
    assert inst.metadata["generator"] == "grid"
    scaled = inst.theta * 10**5
    assert np.allclose(scaled, np.rint(scaled), atol=1e-7)


def test_golden_planar():
    inst = read_instance(GOLDEN / "planar8.json")
    assert inst.graph.vertex_count == 8
    br = optimize_lower_bound(inst.graph, inst.theta)
    res = best_decode(inst.graph, inst.theta, br)
    assert res.energy >= br.bound - 1e-6


@pytest.mark.parametrize(
    "name, generate",
    [
        ("planar8.json", lambda: gen_random_planar(8, 11)),
        ("grid4x3.json", lambda: gen_grid(4, 3, GpbLikeWeights(0.27), 7)),
    ],
    ids=["planar8", "grid4x3"],
)
def test_generators_reproduce_the_golden_instances(name, generate):
    golden, inst = read_instance(GOLDEN / name), generate()
    assert inst.graph.vertex_count == golden.graph.vertex_count
    assert inst.graph.edges == golden.graph.edges
    assert inst.graph.rotation == golden.graph.rotation
    assert inst.theta.tolist() == golden.theta.tolist()
    assert (inst.name, inst.metadata) == (golden.name, golden.metadata)


@pytest.mark.parametrize(
    "n, seed, digest",
    [
        # the sparsification deletes 0, 1, 29 and 545 edges of these
        (3, 0, "003def889269537a47cf5b8da408e89fb71dd1705613858f61dc47850d109f6d"),
        (3, 5, "0707923b4adc79468a781d088d7a15f682494754899a006745a94566838ab00a"),
        (20, 0, "72d1d8dc21d8bc4c62e77b3b7de4311d76f6e3b87ae7528a191e2127e2d95e0f"),
        (300, 3, "2c8eac4ca21d26cab8e06259a06860f42539eb2584da5e41c70ee2a695ac831c"),
    ],
)
def test_random_planar_instances_are_pinned(n, seed, digest):
    inst = gen_random_planar(n, seed)
    g = inst.graph
    data = repr((g.edges, g.rotation)).encode() + inst.theta.astype("<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


GRAPHS = {
    "grid28": lambda: gen_grid(28, 28, GpbLikeWeights(0.27), 0).graph,
    "grid5x2": lambda: gen_grid(5, 2, UniformWeights(), 3).graph,
    "planar20": lambda: gen_random_planar(20, 0).graph,
    "planar300": lambda: gen_random_planar(300, 3).graph,
    **{name: lambda name=name: read_instance(GOLDEN / f"{name}.json").graph
       for name in ("triangle", "planar8", "grid4x3")},
}


@pytest.mark.parametrize(
    "name, digest",
    [
        # computed when the graph kept its topology in tuples of tuples
        ("grid28", "e47788b49894649f34325c7e8ce1251315fbb6e52defa75304ee38e61a9c5c64"),
        ("grid5x2", "5620402bd169cafb7efe8d7856b8553260c78f1ae672b6eeb4d5eba4857acc40"),
        ("planar20", "9834bb13bb59ece606dda78809f600dd0f8aaf721cff72a53505f855694280ae"),
        ("planar300", "ad2d76681378799f006cfa44e4a784e41f0da38956db7376ef09cdbf294d1e47"),
        ("triangle", "90d9e78e3f88aa5ae7a0de950a194539ee01ebdbd190befeb4962c32a8cd9122"),
        ("planar8", "a045b9fc9972126daf7e629f5a0733e87ded99f566b1411713ce51dd16880dc2"),
        ("grid4x3", "5be5eb8b77b9dad1cb9e545aef647823c34ff7f34fe5bc040b080b4ec5e5c3f7"),
    ],
)
def test_tuple_views_of_the_graph_are_pinned(name, digest):
    # edges, rotation, faces and edge_faces read the flat arrays as the
    # tuples of Python ints that the graph used to store
    g = GRAPHS[name]()
    views = (g.edges, g.rotation, g.faces, g.edge_faces)
    assert all(type(x) is int for view in views for row in view for x in row)
    assert hashlib.sha256(repr(views).encode()).hexdigest() == digest
