"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_norm_trends_writes_its_table(tmp_path):
    out = tmp_path / "trends.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(ROOT / "scripts" / "norm_trends.py"), "--out", str(out), "--segment-n", "256", "--levels", "3,4"]
    run = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, *rows = out.read_text().splitlines()
    assert header == "kind,param,epsilon,norm,iterations"
    cells = [row.split(",") for row in rows]
    want = [("segment", "256")] * 3 + [("lipschitz-graph", "256")] * 3 + [("four-corners", "3"), ("four-corners", "4")]
    assert [(kind, param) for kind, param, *_ in cells] == want
    for _, _, eps, norm, iters in cells:
        assert float(eps) > 0.0 and int(iters) > 0
        assert math.isfinite(float(norm)) and float(norm) > 0.0
