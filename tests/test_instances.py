import math
import re
import tracemalloc
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import QhullError

import planarclust.instances as instances_module
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


def _decimal_round(x: float) -> float:
    """The reference rounding: half-to-even at 1e-5 of x's shortest repr."""
    return float(Decimal(repr(x)).quantize(Decimal("0.00001"), rounding=ROUND_HALF_EVEN))


def _ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# 2**52 / 1e5: from here up |x * 1e5| reaches 2**52 and the Decimal path takes over
LARGE = 2.0**52 / 1e5

roundable = st.one_of(
    st.floats(min_value=-9.9e22, max_value=9.9e22),  # subnormals included
    st.floats(min_value=-50.0, max_value=50.0),
    # exact ties at five decimals (k + 1/2) * 1e-5, and a few ulps beside them
    st.builds(lambda k, d: _ulps((k + 0.5) / 1e5, d), st.integers(-2**53, 2**53), st.integers(-3, 3)),
    st.builds(lambda x, negative: -x if negative else x,
              st.floats(min_value=LARGE * 0.999, max_value=LARGE * 1.001), st.booleans()),
    st.sampled_from([0.0, -0.0, 0.350015, -2.077225, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -0.000004, LARGE, -LARGE, 9.9e22]),
)


@settings(max_examples=400)
@given(st.lists(roundable, max_size=12))
def test_round_theta_matches_the_decimal_reference(xs):
    # the fast path rounds x * 1e5 with rint; near-ties and large weights
    # take the Decimal path.  Equal bits: signed zeros must match too
    got = round_theta(np.array(xs, dtype=float))
    assert got.tobytes() == np.array([_decimal_round(x) for x in xs], dtype=float).tobytes()


@given(st.floats(min_value=1e23), st.booleans())
def test_round_theta_rejects_weights_from_1e23(x, negative):
    weights = [0.1, -x if negative else x]
    with pytest.raises(DomainError, match="1e23" if math.isfinite(x) else "finite"):
        round_theta(weights)


def test_weights_that_cannot_be_rounded_raise():
    # a NaN weight used to round to NaN; inf and weights of 1e23 and up
    # raised decimal.InvalidOperation
    with pytest.raises(DomainError, match="finite"):
        gen_grid(3, 3, GpbLikeWeights(float("nan")), 0)
    for bad, message in ((np.inf, "finite"), (1e23, "1e23"), (-1e308, "1e23")):
        with pytest.raises(DomainError, match=message):
            round_theta([0.5, bad])
    assert round_theta([-9.9e22])[0] == -9.9e22


@pytest.mark.parametrize(
    "model, args, error, message",
    [
        # these used to fail inside gen_grid: numpy's "high - low < 0", an
        # OverflowError that the CLI did not catch, round_theta's "weights
        # must be finite to be rounded" and a numpy UFuncTypeError
        (UniformWeights, (1, 0), ValueError, "needs a <= b and a finite b - a, got a=1, b=0"),
        (UniformWeights, (float("nan"), 1), DomainError, "UniformWeights.a must be finite, got nan"),
        (UniformWeights, (0, np.inf), DomainError, "UniformWeights.b must be finite, got inf"),
        (UniformWeights, (-1e308, 1e308), ValueError, "a finite b - a, got a=-1e+308, b=1e+308"),
        (UniformWeights, ("0", 1), ValueError, "UniformWeights.a must be a real number, got '0'"),
        (GpbLikeWeights, (np.inf,), DomainError, "GpbLikeWeights.beta must be finite, got inf"),
        (GpbLikeWeights, (np.float64("nan"),), DomainError, "GpbLikeWeights.beta must be finite, got nan"),
        (GpbLikeWeights, ("0.2",), ValueError, "GpbLikeWeights.beta must be a real number, got '0.2'"),
        (GpbLikeWeights, (True,), ValueError, "GpbLikeWeights.beta must be a real number, got True"),
    ],
)
def test_weight_models_check_their_fields(model, args, error, message):
    with pytest.raises(error, match=re.escape(message)):
        model(*args)


def test_weight_models_take_numpy_and_integer_fields():
    for model in (UniformWeights(np.float32(-0.5), 2), UniformWeights(0.5, 0.5), GpbLikeWeights(np.int64(0))):
        assert gen_grid(3, 3, model, 0).theta.shape == (12,)


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


def test_grid_topology_matches_the_loop():
    for width, height in ((2, 2), (5, 3), (3, 7), (28, 28)):
        edges, pos = instances_module._grid_topology(width, height)
        ref = []
        for r in range(height):
            for c in range(width):
                if c + 1 < width:
                    ref.append([r * width + c, r * width + c + 1])
                if r + 1 < height:
                    ref.append([r * width + c, (r + 1) * width + c])
        assert edges.dtype == np.int64 and edges.tolist() == ref
        assert pos.tolist() == [[c, r] for r in range(height) for c in range(width)]


def test_nearest_site_matches_one_array_over_blocks(monkeypatch):
    rng = np.random.default_rng(0)
    pos = rng.integers(0, 30, size=(500, 2)).astype(float)
    sites = rng.uniform(0.0, 1.0, size=(11, 2)) * [29, 29]
    ref = np.argmin(((pos[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2), axis=1)
    for block in (1, 7, 11 * 37, 1 << 16):  # one row, uneven blocks, one block
        monkeypatch.setattr(instances_module, "BLOCK", block)
        assert np.array_equal(instances_module._nearest_site(pos, sites), ref)


def test_gen_grid_region_assignment_stays_small():
    # the nearest region site of every vertex came from a V x R x 2 array:
    # 117.5 MB of tracemalloc peak at 120x120 and 950 MB of RSS at 200x200
    tracemalloc.start()
    try:
        gen_grid(120, 120, GpbLikeWeights(0.27), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_gen_random_planar_redraws_only_a_degenerate_sample(monkeypatch):
    # every exception used to trigger a redraw, so a MemoryError looped forever
    calls = []

    def delaunay(points, fail):
        calls.append(points)
        if len(calls) == 1:
            raise fail("degenerate")
        return real(points)

    real = instances_module.Delaunay
    monkeypatch.setattr(instances_module, "Delaunay", lambda p: delaunay(p, QhullError))
    inst = gen_random_planar(12, 4)
    assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])
    assert inst.graph.vertex_count == 12

    calls.clear()
    monkeypatch.setattr(instances_module, "Delaunay", lambda p: delaunay(p, RuntimeError))
    with pytest.raises(RuntimeError, match="degenerate"):
        gen_random_planar(12, 4)
    assert len(calls) == 1


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
