"""Self-tests of the benchmark harness (not of planarclust itself).

    python3 -m pytest perfbench -q

Workloads are shrunk to a few small instances so the whole file runs in
well under a minute; the code paths are the ones a full run takes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import numpy as np  # noqa: E402

import planarclust as pc  # noqa: E402
import tracing  # noqa: E402
from certify import certificate_problems  # noqa: E402
from hostspeed import PROBE_REF_S, HostSpeed  # noqa: E402
from workloads import TOL, WORKLOADS, measure, set_up  # noqa: E402

TINY = {
    "grid-gpb": dict(sizes=(8,), count=2),
    "planar-desk": dict(sizes=(10, 12), count=6),
    "decode-recursive": dict(sizes=(6, 7), count=2),
}


def tiny(name: str):
    # a name without reference tables: only the canaries are compared
    return dataclasses.replace(WORKLOADS[name], name=f"{name}-tiny", **TINY[name])


def benchmark_json() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        **tracing.LAYER_UNITS, **run.RUN_LAYER_UNITS
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_its_unit(name, trace, capsys, tmp_path):
    result = run.run_benchmark(tiny(name), seed=3, seconds=0.01, trace=trace, out_dir=tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    doc = benchmark_json()
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    table = "\n".join(lines[:-1])
    for metric in declared:
        assert f"{metric['name']} " in table
    for extra in ("inst_p50_s", "inst_p90_s", "gap_sum", "failed_frac"):
        assert extra in table
    if trace:
        spans = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
        assert spans["spans"] and spans["absent_hooks"] == []


def _solved(n=10, seed=4):
    inst = pc.gen_random_planar(n, seed=seed)
    br = pc.optimize_lower_bound(inst.graph, inst.theta, tol=TOL)
    res = pc.best_decode(inst.graph, inst.theta, br, restarts=1, seed=0)
    return inst, br, res


def test_certificate_accepts_solver_output():
    inst, br, res = _solved()
    assert certificate_problems(inst.graph, inst.theta, br.lam, br.bound, res.partition, res.energy, TOL) == []


def test_certificate_rejects_perturbed_lambda():
    inst, br, res = _solved()
    theta = inst.theta
    e = int(np.argmin(theta))

    below_box = br.lam.copy()
    below_box[e] = theta[e] - 0.5
    problems = certificate_problems(inst.graph, theta, below_box, br.bound, res.partition, res.energy, TOL)
    assert any("box" in p for p in problems)

    # inside the box but infeasible: every negative edge at its lower end
    at_theta = theta.copy()
    implied = float(np.minimum(theta - at_theta, 0.0).sum())
    problems = certificate_problems(inst.graph, theta, at_theta, implied, res.partition, res.energy, TOL)
    assert any("infeasible" in p for p in problems)

    problems = certificate_problems(inst.graph, theta, br.lam, br.bound + 0.25, res.partition, res.energy, TOL)
    assert any("sum(min(theta - lambda, 0))" in p for p in problems)


def test_certificate_rejects_mislabelled_partition():
    inst, br, res = _solved()
    labels = res.partition.copy()
    # move one endpoint of the heaviest-weight edge into a cluster of its own
    e = int(np.argmax(np.abs(inst.theta)))
    labels[inst.graph.edges[e][0]] = labels.max() + 1
    problems = certificate_problems(inst.graph, inst.theta, br.lam, br.bound, labels, res.energy, TOL)
    assert any("recomputed from the labels" in p for p in problems)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_rounds_agree(name):
    workload = tiny(name)
    host = HostSpeed()
    setup = set_up(workload, seed=5, host=host, repeats=1)
    tracer = tracing.Tracer()
    rounds = measure(workload, setup.items, 5, 0.01, host, tracer)
    assert [r.traced for r in rounds] == [False, True]
    plain, traced = rounds
    assert [r.key() for r in plain.records] == [r.key() for r in traced.records]
    assert not any(r.error for r in plain.records)
    layers = tracing.layer_metrics(tracer, rounds)
    assert set(layers) == set(tracing.LAYER_UNITS)
    # the hooks count what the public results report
    if not workload.bound_in_setup:
        assert layers["bound.oracle_calls"] == sum(r.oracle_calls for r in plain.records)
        assert layers["bound.batches"] == sum(r.batches for r in plain.records)
    else:
        assert layers["decode.recursive_passes"] == len(plain.records)
        assert layers["bound.batches"] == 0 and layers["lp.calls"] == 0
    # hooks are removed again after the traced round
    import planarclust.bound

    assert planarclust.bound.solve_lp is pc.lp.solve_lp


def test_absent_hook_is_reported_not_fatal(monkeypatch):
    hooks = tracing.HOOKS + (("planarclust.cut_oracle", "no_such_function", "matching", None),)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    workload = tiny("grid-gpb")
    host = HostSpeed()
    setup = set_up(workload, seed=6, host=host, repeats=1)
    tracer = tracing.Tracer()
    rounds = measure(workload, setup.items, 6, 0.01, host, tracer)
    assert tracer.absent == ["planarclust.cut_oracle.no_such_function"]
    layers = tracing.layer_metrics(tracer, rounds)
    assert "matching.calls" not in layers and "matching.terminals_max" not in layers
    assert layers["lp.calls"] > 0


def test_untraced_run_scales_every_instance_by_its_bracketing_probes():
    workload = tiny("planar-desk")
    host = HostSpeed(every=0.0)  # a probe after every instance
    setup = set_up(workload, seed=7, host=host, repeats=1)
    (rnd,) = measure(workload, setup.items, 7, 0.01, host)
    for rec in rnd.records:
        t0, t1 = rec.span
        before = max(i for i, end in enumerate(host.ends) if end <= t0)
        after = min(i for i, start in enumerate(host.starts) if start >= t1)
        assert after == before + 1
        expected = (host.durations[before] + host.durations[after]) / 2 / PROBE_REF_S
        assert rec.slowdown == pytest.approx(expected)
        assert rec.scaled("solve_s") == pytest.approx(rec.solve_s / expected)


def test_slowdown_reads_the_probes_around_a_stretch():
    host = HostSpeed()
    host.starts, host.ends = [0.0, 2.0, 4.0], [1.0, 3.0, 5.0]
    host.durations = [PROBE_REF_S, 2 * PROBE_REF_S, 4 * PROBE_REF_S]
    assert host.slowdown(1.0, 2.0) == pytest.approx(1.5)
    assert host.slowdown(1.5, 4.5) == pytest.approx(7 / 3)  # a probe inside counts too
    assert host.slowdown(5.5, 6.0) == pytest.approx(4.0)  # no probe after yet
    assert HostSpeed().slowdown(0.0, 1.0) == 1.0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-gpb", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
