"""The package's public surface and the module boundaries behind it."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planarclust

# names that the benchmark harness, the scripts and the README import from
# the top-level package
USED_AT_TOP_LEVEL = (
    "BoundResult",
    "GpbLikeWeights",
    "Instance",
    "best_decode",
    "decode_recursive",
    "gen_grid",
    "gen_random_planar",
    "optimize_lower_bound",
    "cut_energy",
    "cut_from_partition",
    "min_cut_2color",
)


def test_all_names_resolve():
    assert len(set(planarclust.__all__)) == len(planarclust.__all__)
    for name in planarclust.__all__:
        assert getattr(planarclust, name) is not None, name


def test_all_holds_the_names_used_at_top_level():
    assert set(USED_AT_TOP_LEVEL) <= set(planarclust.__all__)


def test_reference_names_import_from_oracle():
    from planarclust.oracle import (  # noqa: F401
        TooLarge,
        brute_cc,
        brute_cc2,
        brute_cck,
        check_coloring_chain,
        exact_cc_value,
        full_lp_bound,
    )


def test_matching_module_loads_standalone():
    # loaded by file path, as scripts/compare_matching_cost.py does, so it
    # must not import from the package
    path = Path(planarclust.__file__).with_name("matching.py")
    spec = importlib.util.spec_from_file_location("matching_standalone", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    w = np.array([[0, 3], [3, 0]], dtype=np.int64)
    mate, pi = mod.match_dense(w, ~np.eye(2, dtype=bool))
    assert mate.tolist() == [1, 0] and pi.sum() == 3


def test_package_import_leaves_the_reference_module_unloaded():
    # importing the package loads every production module, so this catches
    # an import of `oracle` from any of them, in any form; only cli.py, which
    # the package does not import, may use the reference solvers
    src = str(Path(planarclust.__file__).parents[1])
    code = "import sys, planarclust; print('planarclust.oracle' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reference_module_imports_only_graph_and_lp():
    # the reference solvers stay apart from the cut oracle and the matching
    # solver, so a test that compares against them checks an independent
    # route; any other form of package import also fails here
    path = Path(planarclust.__file__).with_name("oracle.py")
    found = set()
    for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(n, ast.ImportFrom) and n.level:
            found |= {n.module} if n.module else {a.name for a in n.names}
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in n.names] if isinstance(n, ast.Import) else [n.module]
            found |= {x for x in names if x.split(".")[0] == "planarclust"}
    assert found == {"graph", "lp"}


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so none may carry a check; parsing finds
    # them in any position, also after a colon on one line
    found = []
    for path in sorted(Path(planarclust.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def _weight_entry_points(graph, theta):
    br = planarclust.optimize_lower_bound(graph, np.abs(theta))
    return {
        "min_cut_2color": lambda w: planarclust.min_cut_2color(graph, w),
        "min_cut_forced": lambda w: planarclust.min_cut_forced(graph, w, 0),
        "optimize_lower_bound": lambda w: planarclust.optimize_lower_bound(graph, w),
        "decode_recursive": lambda w: planarclust.decode_recursive(graph, w, np.abs(theta)),
        "decode_rounding": lambda w: planarclust.decode_rounding(graph, w, br.pool),
        "best_decode": lambda w: planarclust.best_decode(graph, w, br),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry",
    ["min_cut_2color", "min_cut_forced", "optimize_lower_bound", "decode_recursive",
     "decode_rounding", "best_decode"],
)
def test_non_finite_weights_raise(entry, bad):
    # a NaN used to raise IndexError in the oracle, +inf gave a converged
    # bound of nan and -inf a certified energy of -inf
    inst = planarclust.gen_grid(3, 3, planarclust.GpbLikeWeights(0.27), seed=0)
    theta = inst.theta.copy()
    call = _weight_entry_points(inst.graph, theta)[entry]
    call(theta)
    theta[1] = bad
    with pytest.raises(ValueError, match="finite"):
        call(theta)


@pytest.mark.parametrize("shape", ["short", "long", "column"])
@pytest.mark.parametrize(
    "entry",
    ["partition_from_cut", "cut_energy", "decode_recursive-theta", "decode_recursive-lam",
     "decode_rounding", "optimize_lower_bound", "lower_bound_value-theta", "lower_bound_value-lam"],
)
def test_edge_vectors_of_another_shape_raise(entry, shape):
    # a wrong-length cut used to raise IndexError in partition_from_cut, as
    # did a 2-D lambda in decode_recursive; a wrong-length theta or lambda
    # in the decoders, and a column theta in optimize_lower_bound, raised
    # numpy's broadcasting message.  lower_bound_value broadcast silently:
    # a column theta against a row lambda summed an E x E matrix
    inst = planarclust.gen_grid(3, 3, planarclust.GpbLikeWeights(0.27), seed=0)
    graph, theta = inst.graph, inst.theta
    br = planarclust.optimize_lower_bound(graph, theta)
    call = {
        "partition_from_cut": lambda v: planarclust.graph.partition_from_cut(graph, v < 0),
        "cut_energy": lambda v: planarclust.graph.cut_energy(graph, theta, v < 0),
        "decode_recursive-theta": lambda v: planarclust.decode_recursive(graph, v, br.lam),
        "decode_recursive-lam": lambda v: planarclust.decode_recursive(graph, theta, v),
        "decode_rounding": lambda v: planarclust.decode_rounding(graph, v, br.pool),
        "optimize_lower_bound": lambda v: planarclust.optimize_lower_bound(graph, v),
        "lower_bound_value-theta": lambda v: planarclust.lower_bound_value(v, br.lam),
        "lower_bound_value-lam": lambda v: planarclust.lower_bound_value(theta, v),
    }[entry]
    call(theta)
    bad = {"short": theta[:-1], "long": np.r_[theta, theta[:1]], "column": theta[:, None]}[shape]
    with pytest.raises(ValueError, match="one entry per edge"):
        call(bad)
