import math

import numpy as np
import pytest

from planarclust.graph import EulerViolation, build_graph
from planarclust.instances import (
    DomainError,
    GpbLikeWeights,
    ParseError,
    UniformWeights,
    gen_grid,
    gen_random_planar,
    gpb_to_theta,
    read_instance,
    round_theta,
    rotation_from_positions,
    write_instance,
)


def test_gpb_to_theta():
    assert gpb_to_theta(0.5, 0.0) == 0.0
    assert gpb_to_theta(0.5, 0.35) == 0.35
    assert gpb_to_theta(0.9, 0.12) == pytest.approx(math.log(1 / 9) + 0.12)
    assert round(gpb_to_theta(0.9, 0.12), 5) == -2.07722
    with pytest.raises(DomainError):
        gpb_to_theta(0.0, 0.1)
    with pytest.raises(DomainError):
        gpb_to_theta(1.0, 0.1)


def test_gpb_to_theta_monotone():
    vals = [gpb_to_theta(g, 0.2) for g in np.linspace(0.01, 0.99, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_round_theta():
    assert round_theta([0.000004])[0] == 0.0
    assert round_theta([-2.077225])[0] == -2.07722  # half to even
    assert round_theta([0.350015])[0] == 0.35002  # half to even, odd digit rounds up
    assert round_theta([0.35])[0] == 0.35
    out = round_theta(np.array([1.23456789, -0.5]))
    assert out.tolist() == [1.23457, -0.5]


def test_weights_that_cannot_be_rounded_raise():
    # a NaN weight used to round to NaN; inf and weights of 1e23 and up
    # raised decimal.InvalidOperation
    with pytest.raises(DomainError, match="finite"):
        gen_grid(3, 3, GpbLikeWeights(float("nan")), 0)
    for bad, message in ((np.inf, "finite"), (1e23, "1e23"), (-1e308, "1e23")):
        with pytest.raises(DomainError, match=message):
            round_theta([0.5, bad])
    assert round_theta([-9.9e22])[0] == -9.9e22


def test_gen_grid_shapes():
    inst = gen_grid(2, 2, UniformWeights(), 0)
    assert inst.graph.vertex_count == 4
    assert inst.graph.edge_count == 4
    assert inst.graph.face_count == 2
    inst = gen_grid(3, 3, UniformWeights(), 0)
    assert inst.graph.vertex_count == 9
    assert inst.graph.edge_count == 12
    assert inst.graph.face_count == 5


def test_gen_grid_deterministic():
    a = gen_grid(5, 5, GpbLikeWeights(0.35), 7)
    b = gen_grid(5, 5, GpbLikeWeights(0.35), 7)
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.theta, b.theta)
    c = gen_grid(5, 5, GpbLikeWeights(0.35), 8)
    assert not np.array_equal(a.theta, c.theta)


def test_theta_is_5_decimal():
    inst = gen_grid(6, 6, GpbLikeWeights(0.2), 3)
    scaled = inst.theta * 10**5
    assert np.allclose(scaled, np.rint(scaled), atol=1e-7)


def test_numpy_integer_sizes_give_the_same_savable_instance(tmp_path):
    # numpy integers stayed in the metadata, which json cannot write
    for make in (
        lambda n: gen_random_planar(n, 1),
        lambda n: gen_grid(n, 3, UniformWeights(), 2),
        lambda n: gen_grid(3, n, UniformWeights(), 2),
    ):
        inst, ref = make(np.int64(8)), make(8)
        assert inst.name == ref.name and inst.metadata == ref.metadata
        assert all(type(v) is int for v in inst.metadata.values() if not isinstance(v, str))
        assert inst.graph.edges == ref.graph.edges and np.array_equal(inst.theta, ref.theta)
        write_instance(inst, tmp_path / "i.json")
        assert read_instance(tmp_path / "i.json").metadata == ref.metadata


def test_non_integer_sizes_raise():
    # a float size died in numpy's TypeError, and a bool went in as 0 or 1
    for bad, shown in ((8.5, "8.5"), (np.float64(8.0), "8.0"), (True, "True")):
        for name, call in (
            ("n", lambda: gen_random_planar(bad, 1)),
            ("width", lambda: gen_grid(bad, 3, UniformWeights(), 0)),
            ("height", lambda: gen_grid(3, bad, UniformWeights(), 0)),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
                call()
    with pytest.raises(ValueError, match="^need at least 3 vertices$"):
        gen_random_planar(np.int64(2), 1)
    with pytest.raises(ValueError, match="^grid must be at least 2x2$"):
        gen_grid(3, np.int32(1), UniformWeights(), 0)


def test_gen_random_planar_valid():
    seen = set()
    for seed in range(100):
        n = 8 + seed % 5
        inst = gen_random_planar(n, seed)
        assert inst.graph.vertex_count == n
        # build_graph already validated Euler and connectivity
        seen.add(inst.graph.edges)
    assert len(seen) >= 99  # different seeds give different edge sets


def test_roundtrip(tmp_path):
    for seed in (0, 1):
        inst = gen_random_planar(8, seed)
        p = tmp_path / f"i{seed}.json"
        write_instance(inst, p)
        back = read_instance(p)
        assert back.graph.edges == inst.graph.edges
        assert back.graph.rotation == inst.graph.rotation
        assert np.array_equal(back.theta, inst.theta)  # bit exact
        assert back.name == inst.name
        assert back.metadata == inst.metadata


def test_read_missing_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"vertex_count": 3, "edges": []}')
    with pytest.raises(ParseError):
        read_instance(p)
    p.write_text("not json")
    with pytest.raises(ParseError):
        read_instance(p)


def test_read_tampered_rotation(tmp_path):
    # K4 with two rotation entries swapped at one vertex is no longer planar
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
    pos = [(0, 0), (2, 0), (1, 1.8), (1, 0.6)]
    rotation = [list(r) for r in rotation_from_positions(4, edges, pos)]
    build_graph(4, edges, rotation)  # sanity: valid before tampering
    rotation[0][0], rotation[0][1] = rotation[0][1], rotation[0][0]
    import json

    doc = {
        "format_version": 1,
        "name": "tampered",
        "vertex_count": 4,
        "edges": [[u, v, "0.1"] for u, v in edges],
        "rotation": rotation,
        "metadata": {},
    }
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(EulerViolation):
        read_instance(p)
