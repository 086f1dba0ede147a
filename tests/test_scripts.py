"""Smoke tests: each script runs as a user runs it and writes what it says.

The benchmark recorder is tested on a canned harness output, so no
benchmark runs here."""

import importlib.util
import json
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


@pytest.mark.parametrize(
    "args",
    [
        ("--per-class", "0"),
        ("--per-class", "-3"),
        ("--lam", "1.5"),
        ("--lam", "nan"),
        ("--seed", "-1"),
    ],
)
def test_temporal_imbalance_demo_rejects_bad_arguments(args):
    out, err = run_script("temporal_imbalance_demo.py", *args, code=2)
    assert "usage" in err and out == ""


@pytest.mark.parametrize(
    "args", [("--lam", "1.5"), ("--lam", "0.3"), ("--r", "nan"), ("--r", "0.5")]
)
def test_ce_vs_tal_rejects_a_loss_outside_the_calibrated_domain(args):
    out, err = run_script("ce_vs_tal.py", "--seeds", "1", *args, code=2)
    assert "usage" in err and out == ""


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A stream-lab ``perfbench/run.py --trace 0`` stdout, as the harness prints it.
RUN_STDOUT = """\
# env {"blas": "scipy-openblas 0.3.31.188.0", "blas_threads": 2, "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}
# cpu_s median=0.271294 s p25=0.270595 p75=0.272772 n=5
# steps_per_s median=42573.9 1/s p25=41564.4 p75=42858.4 n=5
# peak_rss_mb median=39.3008 MB p25=39.2305 p75=39.3047 n=3
# setup_s median=0.255026 s p25=0.250073 p75=0.262888 n=9
# info wall_s median=0.274039 s p25=0.270991 p75=0.275672 n=5
{"correct": true, "attempted": 18, "failed": 0, "metrics": {"cpu_s": {"value": 0.2712935350000001, "unit": "s"}, "steps_per_s": {"value": 42573.88897503966, "unit": "1/s"}, "peak_rss_mb": {"value": 39.30078125, "unit": "MB"}, "setup_s": {"value": 0.255026, "unit": "s"}}}
"""


def test_bench_record_parses_each_metric_and_the_environment(tmp_path):
    entry = _bench_record().parse_run(RUN_STDOUT, "abc1234", tmp_path)
    assert entry["commit"] == "abc1234" and entry["correct"] is True and entry["failed"] == 0
    assert entry["checkout"] == str(tmp_path.resolve())
    assert entry["env"]["numpy"] == "2.4.6" and entry["env"]["nproc"] == 2
    assert list(entry["metrics"]) == ["cpu_s", "steps_per_s", "peak_rss_mb", "setup_s"]
    assert entry["metrics"]["peak_rss_mb"] == {
        "median": 39.3008, "p25": 39.2305, "p75": 39.3047, "n": 3, "unit": "MB"
    }


@pytest.mark.parametrize(
    "stdout",
    [
        '# env {}\n{"correct": false, "attempted": 3, "failed": 1, "metrics": {}}\n',
        "",
    ],
)
def test_bench_record_refuses_a_run_that_is_not_correct(stdout):
    with pytest.raises(ValueError):
        _bench_record().parse_run(stdout, "abc1234", ROOT)


def test_bench_record_appends_to_the_workload_file(tmp_path):
    recorder = _bench_record()
    path = tmp_path / "BENCH_stream-lab.json"
    for commit in ("parent", "change"):
        recorder.append_entry(path, recorder.parse_run(RUN_STDOUT, commit, tmp_path / commit))
    entries = json.loads(path.read_text())
    assert [e["commit"] for e in entries] == ["parent", "change"]
    assert [e["checkout"] for e in entries] == [str(tmp_path.resolve() / c) for c in ("parent", "change")]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_stream-lab.json"]
