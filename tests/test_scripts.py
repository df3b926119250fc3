"""The documented scripts run end to end in a fresh interpreter."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_d2_pipeline(tmp_path):
    proc = _run("run_d2_pipeline.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert ("d=2 summary: total=32 real=16 real_up_to_sign=8 orbits=2 "
            "verified=True") in proc.stdout.splitlines()


def test_run_d4_table1_budget_fallback():
    proc = _run("run_d4_table1.py", "--pair-budget", "20")
    assert proc.returncode == 3, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    for k in (1, 3, 5, 7):
        assert any(line.startswith(f"closed-form vector k={k}: ok=True ")
                   for line in lines), proc.stdout


def _warm_spec(workload):
    """The literal ``WARM`` of a benchmark workload, read without importing
    the workload (which loads numpy and the reference checks)."""
    tree = ast.parse((ROOT / "bench" / f"{workload}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WARM" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{workload}.py has no WARM")


WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_setup_probe_runs(workload):
    """The benchmark's set-up fills the caches of each workload's WARM
    spec in a fresh interpreter; a failure there fails every run."""
    spec = json.dumps(_warm_spec(workload))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_probe.py"), str(ROOT / "src"), spec],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0
