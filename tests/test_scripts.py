"""Smoke tests: each script runs as a user runs it and writes what it says."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_temporal_imbalance_demo_writes_s_curves(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "temporal_imbalance_demo.py"),
            "--per-class", "20",
            "--output-dir", str(tmp_path),
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "s_curves.csv").read_text().splitlines()
    assert lines[0] == "step,class,cumulative_positives"
    assert len(lines) == 1 + 2 * 40  # two classes over a 2 x 20-step stream
