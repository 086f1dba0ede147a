"""Smoke tests: each script runs as a user runs it and writes what it says.

The benchmark recorder is tested on a canned harness output, so no
benchmark runs here."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "args", [("--lam", "1.5"), ("--lam", "0.3"), ("--r", "nan"), ("--r", "0.5"), ("--r", "1e6")]
)
def test_ce_vs_tal_rejects_a_loss_outside_the_calibrated_domain(args):
    out, err = run_script("ce_vs_tal.py", "--seeds", "1", *args, code=2)
    assert "usage" in err and out == ""


def _script(name):
    """The script ``scripts/<name>.py`` imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_in_process(name, args):
    """The exit code and stdout of ``scripts/<name>.py`` run in this
    process with ``args``; an exception it raises propagates."""
    out = io.StringIO()
    with mock.patch.object(sys, "argv", [name, *args]), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            _script(name).main()
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _option(flag, values):
    """``[flag, value]`` with a value drawn from ``values`` as text, or no option."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


# Text that is no finite number, and two spellings float() reads: 1_0 and 1.5.
_WORDS = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "0x10", "1_0", "1.5"])


@given(
    seeds=st.integers(-1, 1),
    lam=st.floats(0.4, 1.0),
    r=st.floats(0.0, 1000.0),
)
def test_ce_vs_tal_on_drawn_arguments_exits_0_or_2(seeds, lam, r):
    args = ["--seeds", str(seeds), "--lam", str(lam), "--r", str(r)]
    code, out = run_in_process("ce_vs_tal", args)
    assert code in (0, 2)
    assert code == 0 or out == ""


@given(
    args=st.tuples(
        _option("--lam", st.floats() | _WORDS),
        _option("--per-class", st.integers(max_value=200) | _WORDS),
        _option("--seed", st.integers(min_value=-2, max_value=2**70) | _WORDS),
    )
)
def test_temporal_imbalance_demo_on_drawn_arguments_exits_0_or_2(args):
    code, out = run_in_process("temporal_imbalance_demo", sum(args, []))
    assert code in (0, 2)
    assert code == 0 or out == ""


@pytest.mark.parametrize("spelling", ["1_0", " 2", "2 ", "+2", "02", "٢"])
@pytest.mark.parametrize(
    "name, flag",
    [("ce_vs_tal", "--seeds"), ("temporal_imbalance_demo", "--per-class"),
     ("temporal_imbalance_demo", "--seed")],
)
def test_a_script_integer_option_takes_only_decimal_digits(name, flag, spelling):
    # the CLI's one integer spelling: int() would read each of these
    assert run_in_process(name, [flag, spelling]) == (2, "")


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
    environ = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "PATH": "/bin"}
    entry = _bench_record().parse_run(RUN_STDOUT, "abc1234", tmp_path, environ)
    assert entry["commit"] == "abc1234" and entry["correct"] is True and entry["failed"] == 0
    assert entry["checkout"] == str(tmp_path.resolve())
    assert entry["env"]["numpy"] == "2.4.6" and entry["env"]["nproc"] == 2
    assert list(entry["metrics"]) == ["cpu_s", "steps_per_s", "peak_rss_mb", "setup_s"]
    assert entry["metrics"]["peak_rss_mb"] == {
        "median": 39.3008, "p25": 39.2305, "p75": 39.3047, "n": 3, "unit": "MB"
    }
    # each BLAS thread variable the run started with, None when unset
    assert entry["blas_env"] == {
        "OPENBLAS_NUM_THREADS": "2", "OPENBLAS_THREAD_TIMEOUT": None, "OMP_NUM_THREADS": "1"
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
        _bench_record().parse_run(stdout, "abc1234", ROOT, {})


def test_bench_record_appends_to_the_workload_file(tmp_path):
    recorder = _bench_record()
    path = tmp_path / "BENCH_stream-lab.json"
    for commit in ("parent", "change"):
        recorder.append_entry(path, recorder.parse_run(RUN_STDOUT, commit, tmp_path / commit, {}))
    entries = json.loads(path.read_text())
    assert [e["commit"] for e in entries] == ["parent", "change"]
    assert [e["checkout"] for e in entries] == [str(tmp_path.resolve() / c) for c in ("parent", "change")]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_stream-lab.json"]
