import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from planarclust import bound as bound_module
from planarclust.cli import main
from planarclust.cut_oracle import OracleError, scale_to_int
from planarclust.instances import GpbLikeWeights, Instance, gen_grid, gen_random_planar, write_instance
from planarclust.lp import LpError

from conftest import embedded


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_triangle(tmp_path, theta):
    g = embedded(3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (1, 0), (0.5, 1)])
    inst = Instance(graph=g, theta=np.asarray(theta, float), name="tri", metadata={})
    path = tmp_path / "tri.json"
    write_instance(inst, path)
    return path


def test_solve_certified_triangle(tmp_path, capsys):
    path = write_triangle(tmp_path, [-1.0, -1.0, -1.0])
    code, out, _ = run_cli(capsys, "solve", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["bound"] == pytest.approx(-3.0, abs=1e-8)
    assert doc["energy"] == pytest.approx(-3.0)
    assert doc["certificate"] is True
    assert doc["gap"] >= -1e-6
    assert len(doc["labels"]) == 3
    assert doc["params"] == {
        "tol": 1e-6,
        "restarts": 10,
        "seed": 0,
        "max_batches": 1000,
    }


def test_solve_all_positive(tmp_path, capsys):
    path = write_triangle(tmp_path, [0.5, 1.0, 2.0])
    code, out, _ = run_cli(capsys, "solve", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["bound"] == 0.0 and doc["energy"] == 0.0
    assert doc["labels"] == [0, 0, 0]


def test_solve_determinism(tmp_path, capsys):
    inst = gen_random_planar(9, 42)
    path = tmp_path / "p.json"
    write_instance(inst, path)
    code1, out1, _ = run_cli(capsys, "solve", str(path), "--seed", "3")
    code2, out2, _ = run_cli(capsys, "solve", str(path), "--seed", "3")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_times")
    d2.pop("wall_times")
    assert d1 == d2 and code1 == code2


def test_bound_then_decode(tmp_path, capsys):
    inst = gen_random_planar(8, 5)
    path = tmp_path / "p.json"
    write_instance(inst, path)
    bpath = tmp_path / "b.json"
    code, out, _ = run_cli(capsys, "bound", str(path), "--out", str(bpath))
    assert code == 0
    bdoc = json.loads(out)
    assert bdoc["converged"] is True
    assert bpath.exists()
    code, out, _ = run_cli(capsys, "decode", str(path), "--bound", str(bpath))
    ddoc = json.loads(out)
    assert ddoc["energy"] >= bdoc["bound"] - 1e-6
    assert ddoc["gap"] >= -1e-6
    assert code in (0, 2)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc, m: {**doc, "pool": [[0, m + 90]]}, "pool cut 0 names an edge outside"),
        (lambda doc, m: {**doc, "pool": [[0, -1]]}, "pool cut 0 names an edge outside"),
        (lambda doc, m: {**doc, "pool": [[0, 1.5]]}, "not a list of integer edge ids"),
        (
            lambda doc, m: {k: v for k, v in doc.items() if k != "batches"},
            "missing required field 'batches'",
        ),
        (lambda doc, m: 5, "missing required field 'lambda'"),
        (lambda doc, m: {**doc, "batches": 2.7}, "batches must be a non-negative integer"),
        (lambda doc, m: {**doc, "batches": -1}, "batches must be a non-negative integer"),
        (lambda doc, m: {**doc, "batches": True}, "batches must be a non-negative integer"),
        (lambda doc, m: {**doc, "batches": "2"}, "batches must be a non-negative integer"),
        (lambda doc, m: {**doc, "converged": "false"}, "converged must be true or false"),
        (lambda doc, m: {**doc, "converged": 0}, "converged must be true or false"),
    ],
    ids=[
        "id-past-last-edge", "negative-id", "non-integer-id", "missing-field", "not-an-object",
        "float-batches", "negative-batches", "bool-batches", "string-batches",
        "string-converged", "int-converged",
    ],
)
def test_decode_rejects_malformed_bound(tmp_path, capsys, edit, message):
    inst = gen_random_planar(8, 5)
    path = tmp_path / "p.json"
    write_instance(inst, path)
    bpath = tmp_path / "b.json"
    run_cli(capsys, "bound", str(path), "--out", str(bpath))
    bdoc = edit(json.loads(bpath.read_text()), inst.graph.edge_count)
    bpath.write_text(json.dumps(bdoc))
    code, out, err = run_cli(capsys, "decode", str(path), "--bound", str(bpath))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {**doc, "bound": doc["bound"] + 50},
        lambda doc: {**doc, "lambda": [repr(float(x) + 1) for x in doc["lambda"]]},
        lambda doc: {**doc, "lambda": ["nan"] * len(doc["lambda"])},
    ],
    ids=["raised-bound", "edited-lambda", "nan-lambda"],
)
def test_decode_rejects_an_uncertified_bound(tmp_path, capsys, edit):
    # the bound must not exceed what the file's own lambda certifies
    inst = gen_grid(8, 8, GpbLikeWeights(0.27), 3)
    path = tmp_path / "g.json"
    write_instance(inst, path)
    bpath = tmp_path / "b.json"
    run_cli(capsys, "bound", str(path), "--out", str(bpath))
    bpath.write_text(json.dumps(edit(json.loads(bpath.read_text()))))
    code, out, err = run_cli(capsys, "decode", str(path), "--bound", str(bpath))
    assert code == 1 and out == ""
    assert err.startswith("planarclust: error: ") and err.count("\n") == 1


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(3, 10), st.integers(0, 2**32 - 1), st.sampled_from([np.pi, 1e19]))
def test_decode_accepts_a_bound_whose_lambda_takes_the_grid(tmp_path, capsys, n, seed, factor):
    # the oracle rounds such lambdas up onto its grid; the saved bound is
    # what the saved lambda certifies as the oracle solves it, so decode
    # recomputes it exactly
    inst = gen_random_planar(n, seed)
    path, bpath = tmp_path / "r.json", tmp_path / "b.json"
    write_instance(Instance(inst.graph, inst.theta * factor, "grid", {}), path)
    code, _, _ = run_cli(capsys, "bound", str(path), "--out", str(bpath))
    assert code == 0
    saved = json.loads(bpath.read_text())
    assume(scale_to_int([float(x) for x in saved["lambda"]]) is None)
    code, out, err = run_cli(capsys, "decode", str(path), "--bound", str(bpath))
    assert code in (0, 2) and err == ""
    assert json.loads(out)["bound"] == saved["bound"]


def test_decode_accepts_a_bound_saved_at_a_loose_tol(tmp_path, capsys):
    # the saved bound is what its lambda certifies, whatever --tol was
    path = tmp_path / "r.json"
    write_instance(gen_random_planar(10, 5), path)
    bpath = tmp_path / "b.json"
    code, _, _ = run_cli(capsys, "bound", str(path), "--tol", "0.5", "--out", str(bpath))
    assert code == 0
    code, out, err = run_cli(capsys, "decode", str(path), "--bound", str(bpath))
    assert code in (0, 2) and err == ""
    assert json.loads(out)["bound"] == json.loads(bpath.read_text())["bound"]


def test_oracle_queries(tmp_path, capsys):
    path = write_triangle(tmp_path, [-1.0, -1.0, -1.0])
    code, out, _ = run_cli(capsys, "oracle", str(path), "--cc")
    assert code == 0 and json.loads(out)["value"] == -3.0
    code, out, _ = run_cli(capsys, "oracle", str(path), "--cc2")
    assert json.loads(out)["value"] == -2.0
    code, out, _ = run_cli(capsys, "oracle", str(path), "--cck", "3")
    assert json.loads(out)["value"] == -3.0
    code, out, _ = run_cli(capsys, "oracle", str(path), "--chain")
    assert json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "oracle", str(path), "--full-lp")
    doc = json.loads(out)
    assert doc["with_upper_bounds"] == pytest.approx(doc["without_upper_bounds"], abs=1e-9)


def test_gen_grid_deterministic_file(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "gen", "--grid", "6x5", "--beta", "0.35", "--seed", "1", "--out", str(out)
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()


def test_gen_random(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "gen", "--random", "12", "--seed", "9", "--out", str(out))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "solve", str(out))
    assert code in (0, 2)
    assert json.loads(stdout)["gap"] >= -1e-6



@pytest.mark.parametrize(
    "argv, message",
    [
        # --random used to write weights on [-1, 1] and exit 0
        (("--random", "8", "--uniform", "5,6"), "--uniform apply to grid instances only"),
        (("--grid", "3x3", "--uniform", "1"), "--uniform takes A,B"),
        (("--grid", "3x3", "--uniform", "x,1"), "--uniform takes A,B"),
        # non-finite bounds used to die in numpy with an OverflowError traceback
        (("--grid", "3x3", "--uniform", "0,nan"), "--uniform takes finite A,B"),
        (("--grid", "3x3", "--uniform", "0,inf"), "--uniform takes finite A,B"),
        (("--grid", "3x3", "--uniform=-inf,1"), "--uniform takes finite A,B"),
    ],
)
def test_gen_rejects_misused_uniform(tmp_path, capsys, argv, message):
    out = tmp_path / "g.json"
    code, _, err = run_cli(capsys, "gen", *argv, "--out", str(out))
    assert code == 1 and not out.exists()
    assert err.startswith("planarclust: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # NaN weights used to be written, and then rejected by the reader;
        # the others died with a decimal.InvalidOperation traceback
        (("--beta", "nan"), "weights must be finite"),
        (("--beta", "inf"), "weights must be finite"),
        (("--beta", "1e308"), "magnitude 1e23 or more"),
        (("--uniform", "0,1e300"), "magnitude 1e23 or more"),
        # a range wider than the largest double raised an uncaught OverflowError
        (("--uniform=-1e308,1e308",), "a finite b - a"),
    ],
)
def test_gen_rejects_weights_it_cannot_round(tmp_path, capsys, argv, message):
    out = tmp_path / "g.json"
    code, _, err = run_cli(capsys, "gen", "--grid", "4x4", *argv, "--out", str(out))
    assert code == 1 and not out.exists()
    assert err.startswith("planarclust: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("grid", ["3", "3xa", "3x4x5", "x"])
def test_gen_rejects_malformed_grid(tmp_path, capsys, grid):
    # a size without two integer parts used to report a tuple-unpacking error
    out = tmp_path / "g.json"
    code, _, err = run_cli(capsys, "gen", "--grid", grid, "--out", str(out))
    assert code == 1 and not out.exists()
    assert err == f"planarclust: error: --grid takes WxH, not {grid!r}\n"


def test_gen_rejects_a_uniform_range_from_above(tmp_path, capsys):
    # A > B used to exit with numpy's "high - low < 0"; A == B is a range
    out = tmp_path / "g.json"
    code, _, err = run_cli(capsys, "gen", "--grid", "2x2", "--uniform", "1,0", "--out", str(out))
    assert code == 1 and not out.exists()
    assert err == "planarclust: error: --uniform takes A,B with A <= B, not '1,0'\n"
    code, _, _ = run_cli(capsys, "gen", "--grid", "2x2", "--uniform", "0.5,0.5", "--out", str(out))
    assert code == 0 and out.exists()


@pytest.mark.parametrize("n, seed", [(8, 1), (6, 4)])
def test_negative_seeds_fail_in_one_line(tmp_path, capsys, n, seed):
    # solve used to exit 0 on the first instance, whose rounding certifies
    # before any recursive pass reads the seed, and with numpy's "expected
    # non-negative integer" on the second
    path = tmp_path / "r.json"
    assert run_cli(capsys, "gen", "--random", str(n), "--seed", str(seed), "--out", str(path))[0] == 0
    for argv in (("solve", str(path)), ("gen", "--random", str(n), "--out", str(tmp_path / "g.json"))):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "planarclust: error: seed must be non-negative, got -1\n"


def test_bench(tmp_path, capsys):
    d = tmp_path / "instances"
    d.mkdir()
    for seed in range(3):
        write_instance(gen_random_planar(7, seed), d / f"i{seed}.json")
    out = tmp_path / "results.csv"
    code, _, _ = run_cli(capsys, "bench", str(d), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,bound,energy,gap,certificate,batches,ms_bound,ms_decode"
    assert len(lines) == 4


def test_bench_parallel_matches_serial(tmp_path, capsys):
    d = tmp_path / "instances"
    d.mkdir()
    for seed in range(4):
        write_instance(gen_random_planar(6, 50 + seed), d / f"i{seed}.json")
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli(capsys, "bench", str(d), "--out", str(serial))[0] == 0
    assert run_cli(capsys, "bench", str(d), "--out", str(parallel), "--jobs", "2")[0] == 0

    def strip_times(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        return [r[:6] for r in rows]  # drop ms_bound, ms_decode

    assert strip_times(serial.read_text()) == strip_times(parallel.read_text())


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_rejects_jobs_below_one(tmp_path, capsys, jobs):
    path = write_triangle(tmp_path, [-1.0, -1.0, -1.0])
    out = tmp_path / "results.csv"
    code, stdout, err = run_cli(capsys, "bench", str(path.parent), "--out", str(out), "--jobs", jobs)
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith("planarclust: error:") and "jobs" in err
    assert len(err.splitlines()) == 1


def test_solve_positive_gap_exit_code(tmp_path, capsys):
    # instance with a strict integrality gap: certificate impossible
    inst = gen_random_planar(6, 4)
    path = tmp_path / "gap.json"
    write_instance(inst, path)
    code, out, _ = run_cli(capsys, "solve", str(path))
    doc = json.loads(out)
    assert code == 2
    assert doc["certificate"] is False
    assert doc["gap"] > 1e-6


@pytest.mark.parametrize("scale, code", [(1e19, 0), (1e22, 1)])
def test_solve_fails_on_weights_the_lp_solver_reads_as_infinite(tmp_path, capsys, scale, code):
    inst = gen_random_planar(8, 3)
    path = tmp_path / "big.json"
    write_instance(Instance(inst.graph, inst.theta * scale, "big", {}), path)
    got, out, err = run_cli(capsys, "solve", str(path))
    assert got == code
    if code:
        assert out == "" and err.startswith("planarclust: error:") and "1e20" in err
        assert len(err.splitlines()) == 1
    else:
        assert json.loads(out)["certificate"] is True


@pytest.mark.parametrize("command", ["solve", "bound"])
@pytest.mark.parametrize("flag", [("--tol", "nan"), ("--tol", "-1"), ("--max-batches", "-1")])
def test_invalid_loop_parameters_fail(tmp_path, capsys, command, flag):
    path = write_triangle(tmp_path, [-1.0, -1.0, -1.0])
    code, out, err = run_cli(capsys, command, str(path), *flag)
    assert code == 1 and out == ""
    assert err.startswith("planarclust: error:") and flag[0][2:].replace("-", "_") in err
    assert len(err.splitlines()) == 1


def test_missing_instance_fails(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err


def test_malformed_instance_fails(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    code, _, err = run_cli(capsys, "solve", str(p))
    assert code == 1
    # a document that is not an object, metadata that is not an object,
    # non-finite edge weights, and ids that are not JSON integers
    good = json.loads(write_triangle(tmp_path, [-1.0, 1.0, 1.0]).read_text())
    cases = [(5, "not a JSON object"), ({**good, "metadata": 5}, "'metadata' is not a JSON object")]
    for w in ("nan", "inf", "-inf"):
        edges = [[*good["edges"][0][:2], w], *good["edges"][1:]]
        cases.append(({**good, "edges": edges}, "edge weights must be finite"))
    # each one, truncated or read as an int, is the triangle again
    e0, e1, e2 = good["edges"]
    not_integers = [
        {**good, "vertex_count": 3.9},
        {**good, "edges": [[0.7, *e0[1:]], e1, e2]},
        {**good, "edges": [e0, [True, *e1[1:]], e2]},
        {**good, "rotation": [[e + 0.2 for e in r] for r in good["rotation"]]},
    ]
    cases += [(doc, "must be integers") for doc in not_integers]
    for doc, message in cases:
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", str(p))
        assert code == 1 and out == ""
        assert err.startswith("planarclust: error: ") and err.count("\n") == 1
        assert message in err


@pytest.mark.parametrize(
    "target, error",
    [("min_cut_2color", OracleError("oracle broke")), ("solve_lp", LpError("LP broke"))],
)
def test_library_failures_fail_in_one_line(tmp_path, capsys, monkeypatch, target, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(bound_module, target, fail)
    # the oracle rejects this triangle's negative-edge clustering (the cut
    # of vertex 0 weighs -1), so the bound loop reaches its LP
    path = write_triangle(tmp_path, [-2.0, 1.0, 1.0])
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err == f"planarclust: error: {error}\n"
