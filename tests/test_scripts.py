"""The documented scripts run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

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
