"""Smoke tests of the benchmark itself: every workload, both modes, tiny inputs.

Run from the root of the repository:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_all_workloads(trace):
    proc = run("--workload", "all", "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(WORKLOADS)
    kind = "per_layer" if trace else "end_to_end"
    expected = {(m["name"], m["unit"]) for m in SPEC[kind]}
    for workload in WORKLOADS:
        got = {(k.split(".", 1)[1], m["unit"]) for k, m in result["metrics"].items()
               if k.startswith(workload + ".")}
        assert got == expected, workload
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_single_workload_prints_plain_metric_names():
    proc = run("--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("--workload", "ridge", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 0, 0, 0],
        ["inner", 1.0, 4.0, 0, 0, 5, 0],
        ["leaf", 2.0, 3.0, 1, 0, 0, 0],
        ["inner", 5.0, 6.0, 0, 0, 5, 0],
    ]
    total, within = tracing.aggregate(spans)
    assert total["outer"]["self_s"] == pytest.approx(6.0)
    assert total["inner"]["self_s"] == pytest.approx(3.0)
    assert total["inner"]["calls"] == 2 and total["inner"]["work"] == 10
    assert within[("outer", "leaf")] == 1 and within[("outer", "inner")] == 2


def test_install_skips_missing_names(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "model.gone", ("selectlik.model", "no_such_function", None))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import selectlik.model

    original = selectlik.model.loglik_terms
    try:
        absent = tracing.install(tracing.Tracer())
        assert absent == ["model.gone"]
        assert selectlik.model.loglik_terms is not original
    finally:
        for module in list(sys.modules):
            if module == "selectlik" or module.startswith("selectlik."):
                del sys.modules[module]
