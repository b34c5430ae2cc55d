"""Smoke runs of the scripts in scripts/ at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["transport_demo.py", "--points", "2"],
    ["census_sweep.py", "--n-max", "2", "--samples", "200"],
    ["tangent_surface.py", "--t-steps", "8", "--ruling-steps", "4",
     "--out", "{tmp}/surface.obj"],
])
def test_script_runs(argv, tmp_path):
    # the scripts keep the RuntimeWarning policy pyproject.toml gives tests
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    args = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if "--out" in args:
        assert Path(args[args.index("--out") + 1]).stat().st_size > 0
