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


def test_scaling_study(tmp_path):
    out = tmp_path / "scaling.csv"
    proc = run_script("scaling_study.py", "--sizes", "300,600", "--trials", "2",
                      "--n", "30", "--with-full-baseline", "--out", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "full SC at N=600" in proc.stdout
    rows = trial_rows(out)
    assert sorted((r["N"], r["trial"]) for r in rows) == [
        ("300", "0"), ("300", "1"), ("600", "0"), ("600", "1")]
    assert all(float(r["t_sampling"]) > 0 and float(r["t_eig"]) > 0 for r in rows)


def test_run_scenarios(tmp_path):
    out_dir = tmp_path / "results"
    proc = run_script("run_scenarios.py", "--scenario", "s4", "--trials", "1",
                      "--out-dir", str(out_dir), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [p.name for p in out_dir.iterdir()] == ["s4.csv"]
    assert len(trial_rows(out_dir / "s4.csv")) == 4 * 2  # cells x methods
