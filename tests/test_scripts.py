"""Smoke tests: the scripts under scripts/ run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

from sscluster import bench

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def trial_rows(path):
    return [r for r in bench.read_records_csv(path) if r["row_type"] == "TRIAL"]


def test_run_scenarios(tmp_path):
    out_dir = tmp_path / "results"
    proc = run_script("run_scenarios.py", "--scenario", "s4", "--trials", "1",
                      "--out-dir", str(out_dir), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [p.name for p in out_dir.iterdir()] == ["s4.csv"]
    assert len(trial_rows(out_dir / "s4.csv")) == 4 * 2  # cells x methods
