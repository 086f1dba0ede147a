"""Tests of the benchmark itself: python -m pytest perfbench/tests -q"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Target, Tracer, self_times  # noqa: E402
from workloads import GOLDEN, WORKLOADS, Workload, compare_trees  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.a defines leaf() and mid(); pkg.b imports a copy of leaf and calls both."""
    pkg = types.ModuleType("pkg")
    a = types.ModuleType("pkg.a")
    b = types.ModuleType("pkg.b")

    def leaf(fail=False):
        if fail:
            raise ValueError("leaf failed")
        return 1

    def mid():
        return a.leaf() + a.leaf()

    def top(fail=False):
        try:
            b.leaf(fail=fail)
        except ValueError:
            pass
        return a.mid()

    a.leaf, a.mid = leaf, mid
    b.leaf, b.top = leaf, top
    for name, module in (("pkg", pkg), ("pkg.a", a), ("pkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return a, b


def test_self_time_arithmetic_on_a_synthetic_nested_call(fake_package):
    a, b = fake_package
    ticks = itertools.count()
    targets = (Target("b", "top"), Target("a", "mid"), Target("a", "leaf"))
    tracer = Tracer("pkg", targets, clock=lambda: float(next(ticks)))
    tracer.install()
    try:
        assert b.top() == 2
    finally:
        tracer.restore()
    # top [0, 9]: leaf [1, 2], mid [3, 8] holding leaf [4, 5] and leaf [6, 7]
    assert tracer.spans == [
        (0, 0.0, 9.0, -1),
        (2, 1.0, 2.0, 0),
        (1, 3.0, 8.0, 0),
        (2, 4.0, 5.0, 2),
        (2, 6.0, 7.0, 2),
    ]
    calls, total, own = tracer.summary()
    assert calls == [1, 1, 3]
    assert total == [9.0, 5.0, 3.0]
    assert own == [9.0 - 1.0 - 5.0, 5.0 - 2.0, 3.0]
    assert self_times([], 2) == ([0, 0], [0.0, 0.0], [0.0, 0.0])


def test_every_binding_is_wrapped_and_restored(fake_package):
    a, b = fake_package
    original = a.leaf
    tracer = Tracer("pkg", (Target("a", "leaf"),))
    tracer.install()
    assert a.leaf is not original and b.leaf is a.leaf
    tracer.restore()
    assert a.leaf is original and b.leaf is original


def test_errors_count_once_where_they_leave_a_layer(fake_package):
    a, b = fake_package
    tracer = Tracer("pkg", (Target("b", "top"), Target("a", "leaf")))
    tracer.install()
    try:
        b.top(fail=True)
    finally:
        tracer.restore()
    assert tracer.errors == {"a": 1, "b": 0}


def test_tracer_covers_copies_in_the_library():
    import talcil
    import talcil.cli
    import talcil.loss
    import talcil.sim

    originals = (talcil.sim.training_step, talcil.loss.update_batched,
                 talcil.cli.train_incremental, talcil.sim.Classifier.__dict__["logits"],
                 talcil.loss.TalConfig.__dict__["for_classes"])
    tracer = Tracer("talcil", run.TARGETS)
    tracer.install()
    try:
        assert talcil.sim.training_step is talcil.loss.training_step is talcil.training_step
        assert talcil.sim.training_step is not originals[0]
        assert talcil.loss.update_batched is talcil.sim.update_batched
        assert talcil.sim.update_batched is talcil.kernel.update_batched
        assert talcil.loss.update_batched is not originals[1]
        assert talcil.cli.train_incremental is not originals[2]
        assert talcil.sim.Classifier.__dict__["logits"] is not originals[3]
        config = talcil.loss.TalConfig.for_classes(0.995, 1.0, 4)
        assert config.alpha == 7.0
    finally:
        tracer.restore()
    assert (talcil.sim.training_step, talcil.loss.update_batched, talcil.cli.train_incremental,
            talcil.sim.Classifier.__dict__["logits"],
            talcil.loss.TalConfig.__dict__["for_classes"]) == originals
    calls, _, _ = tracer.summary()
    names = [t.name for t in run.TARGETS]
    assert calls[names.index("loss.TalConfig.for_classes")] == 1
    assert calls[names.index("calibration.solve_calibration")] >= 1


def test_golden_gate_fails_on_a_one_byte_change(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    plan = WORKLOADS["train-demo"].plan(ROOT, work, 0)
    produced = tmp_path / "iter" / "train"
    shutil.copytree(ROOT / GOLDEN, produced)
    assert plan.check(produced.parent) == []
    victim = produced / "summary.csv"
    data = bytearray(victim.read_bytes())
    data[10] ^= 1
    victim.write_bytes(bytes(data))
    failures = plan.check(produced.parent)
    assert failures == [f"summary.csv differs from {ROOT / GOLDEN / 'summary.csv'} at byte 10"]
    assert compare_trees(produced, ROOT / GOLDEN) == failures


def test_benchmark_json_matches_the_printed_names():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    def declared(key):
        return [(m["name"], m["unit"], m["better"]) for m in doc[key]]

    assert declared("end_to_end") == list(run.END_TO_END)
    assert declared("per_layer") == run.per_layer_metrics()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_prints_exactly_the_declared_metrics(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "train-demo", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_a_failed_gate_prints_no_metrics_and_exits_nonzero(monkeypatch, capsys):
    original = WORKLOADS["train-demo"]

    def failing(root, work, seed):
        plan = original.plan(root, work, seed)
        plan.check = lambda out: ["forced failure"]
        return plan

    monkeypatch.setitem(WORKLOADS, "train-demo", Workload("train-demo", original.why, failing))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "RSS_REPEATS", 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    code = run.main(["--workload", "train-demo", "--seed", "1", "--seconds", "0.1", "--trace", "0"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert 1 <= result["failed"] <= result["attempted"]
    assert "forced failure" in err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-lab", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
