"""Smoke tests: each script runs as a user runs it and writes what it says."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, code=0):
    """The script's (stdout, stderr), once it has exited with ``code``."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout, proc.stderr


def test_temporal_imbalance_demo_writes_s_curves(tmp_path):
    run_script("temporal_imbalance_demo.py", "--per-class", "20", "--output-dir", str(tmp_path))
    lines = (tmp_path / "s_curves.csv").read_text().splitlines()
    assert lines[0] == "step,class,cumulative_positives"
    assert len(lines) == 1 + 2 * 40  # two classes over a 2 x 20-step stream


# The table as the script printed it when each loss trained on its own.
CE_VS_TAL_SEED0 = """\
seed  loss  a_mean  a_last  age corr
   0  ce    0.8184  0.7180    +0.566
   0  tal   0.8320  0.7340    +0.394
----------------------------------------
  ce mean: a_mean=0.8184+-0.0000  a_last=0.7180+-0.0000  |age corr|=0.566
 tal mean: a_mean=0.8320+-0.0000  a_last=0.7340+-0.0000  |age corr|=0.394
paired a_last improvement: +0.0160 (wins 1/1)
"""


def test_ce_vs_tal_prints_the_paired_table():
    out, _ = run_script("ce_vs_tal.py", "--seeds", "1")
    assert out == CE_VS_TAL_SEED0


@pytest.mark.parametrize("seeds", ["0", "-1", "1.5", "two"])
def test_ce_vs_tal_rejects_a_seed_count_below_one(seeds):
    out, err = run_script("ce_vs_tal.py", "--seeds", seeds, code=2)
    assert "usage" in err and out == ""
