import ast
import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import talcil
from talcil.bench import DEFAULT_BATCH_SIZES, DEFAULT_CLASS_COUNTS, run_loss_benchmark
from talcil.cli import _error_record, main
from talcil.config import load_spec
from talcil.errors import DomainError, SolverError, TrainingError

ROOT = Path(__file__).resolve().parents[1]

TINY_SPEC = """\
dataset:
  classes: 4
  dim: 8
  tasks: 2
  per_class: 30
  test_per_class: 20
  sep: 2.5
schedule:
  replay_per_class: 5
  epochs: 3
  batch_size: 16
  lr: 0.1
loss:
  kind: TAL
  lambda: 0.995
  r: 1.0
seeds: [0, 1]
"""

# A CE run whose learning rate makes it diverge at step 1 (exit 5).
DIVERGENT_SPEC = TINY_SPEC.replace("lr: 0.1", "lr: 1.0e+308").replace("kind: TAL", "kind: CE")


def write_spec(tmp_path, text=TINY_SPEC, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_all_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_prints_record(capsys):
    assert main(["calibrate", "--classes", "10", "--exponent", "1"]) == 0
    out = capsys.readouterr().out
    assert "x_star=0.05263157894736842" in out
    assert "alpha=19.0" in out
    assert "residual=" in out


def test_calibrate_domain_error_exit_code(capsys):
    assert main(["calibrate", "--classes", "1", "--exponent", "1"]) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "DomainError"
    assert record["exit_code"] == 4


def test_error_records_carry_exception_context(tmp_path, capsys):
    # alpha overflows: a SolverError that holds its residual
    assert main(["calibrate", "--classes", "10", "--exponent", "1000"]) == 5
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SolverError" and record["residual"] == 0.0
    assert "step" not in record

    spec = write_spec(tmp_path, DIVERGENT_SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["train", "--spec", str(spec), "--output-dir", str(tmp_path / "out")])
    assert code == 5
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "TrainingError" and record["step"] == 1
    assert "residual" not in record

    # the keys are left out when the exception holds no value
    for exc in (SolverError("x"), TrainingError("x")):
        assert set(json.loads(_error_record(exc, 5))) == {"error", "message", "exit_code"}


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_missing_spec_fails_cleanly(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["train", "--spec", str(tmp_path / "missing.cfg"), "--output-dir", str(out_dir)]
    )
    assert code == 3
    assert not out_dir.exists()  # no partial outputs
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SpecError"


def test_train_invalid_spec_fails_before_any_output(tmp_path):
    bad = TINY_SPEC.replace("classes: 4", "classes: 5")  # 5 % 2 != 0
    spec = write_spec(tmp_path, bad)
    out_dir = tmp_path / "out"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out_dir)]) == 3
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "mutation",
    [
        ("classes: 4", "classes: four"),
        ("kind: TAL", "kind: focal"),
        ("lambda: 0.995", "lambda: 1.5"),
        ("seeds: [0, 1]", "seeds: []"),
        ("epochs: 3", "unknown_key: 3"),
        ("r: 1.0", "r: .nan"),
        ("lr: 0.1", "lr: .nan"),
        ("tasks: 2", "tasks: 2.0"),
        ("epochs: 3", "epochs: 1.5"),
        ("sep: 2.5", "sep: .inf"),
        ("seeds: [0, 1]", "seeds: [0, 0]"),
        ("seeds: [0, 1]", "seeds: [-1]"),
        ("classes: 4", "classes: true"),
        ("tasks: 2", "tasks: 4"),  # one class per task leaves TAL nothing to calibrate
        ("r: 1.0", "r: 1000"),  # alpha = 1/x*^r overflows
        ("r: 1.0", "r: 1.0\n  exploratory: 1"),
    ],
)
def test_malformed_specs_map_to_spec_error(tmp_path, mutation, capsys):
    spec = write_spec(tmp_path, TINY_SPEC.replace(*mutation))
    out_dir = tmp_path / "out"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    assert json.loads(capsys.readouterr().err.strip())["error"] == "SpecError"


def test_an_undecodable_spec_exits_3_with_nothing_written(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_bytes(b"# caf\xe9, in Latin-1\n" + TINY_SPEC.encode())
    out_dir = tmp_path / "out"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SpecError" and str(spec) in record["message"]


def test_an_exponent_without_a_dot_reads_as_its_dotted_form(tmp_path):
    # YAML 1.1 (PyYAML) reads 1e-3 as a string, YAML 1.2 as a float
    def loaded(lr, epsilon, sep):
        text = TINY_SPEC.replace("lr: 0.1", f"lr: {lr}").replace("sep: 2.5", f"sep: {sep}")
        text = text.replace("kind: TAL", f"kind: TAL\n  epsilon: {epsilon}")
        return load_spec(write_spec(tmp_path, text))

    dotted = loaded("1.0e-3", "5.0e-13", "10.0")
    assert (dotted.schedule.lr, dotted.loss.epsilon, dotted.dataset.sep) == (1e-3, 5e-13, 10.0)
    assert loaded("1e-3", "5e-13", "1e1") == dotted
    assert loaded("1E-3", "5.e-13", "1.0e1") == dotted


def test_an_exponent_is_still_a_float_in_an_int_field(tmp_path, capsys):
    spec = write_spec(tmp_path, TINY_SPEC.replace("per_class: 30", "per_class: 1e2"))
    out_dir = tmp_path / "out"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SpecError"
    assert "dataset.per_class must be an integer, got 100.0" in record["message"]


def test_train_writes_expected_files(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {
        "manifest.json",
        "summary.csv",
        "accuracy_matrix_seed0.csv",
        "accuracy_matrix_seed1.csv",
        "per_class_seed0.csv",
        "per_class_seed1.csv",
        "q_snapshots_seed0.csv",
        "q_snapshots_seed1.csv",
        "events_seed0.jsonl",
        "events_seed1.jsonl",
    }
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1]
    assert manifest["spec"]["loss"]["lambda"] == 0.995
    assert manifest["spec"]["dataset"]["cov_scale"] == 1.0  # defaults echoed
    assert "spec_sha256" in manifest and "version" in manifest
    summary = (out_dir / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "seed,a_mean,a_last"
    assert len(summary) == 1 + 2 + 2  # header, two seeds, mean and std rows


def test_train_runs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--spec", str(spec), "--output-dir", str(dir_a)]) == 0
    assert main(["train", "--spec", str(spec), "--output-dir", str(dir_b)]) == 0
    assert read_all_bytes(dir_a) == read_all_bytes(dir_b)


def test_train_keeps_the_spec_seed_order_and_each_seed_its_own_run(tmp_path):
    # the seeds train in lockstep, but each seed's files are those of a
    # run of that seed alone, and the summary rows follow the spec
    both = write_spec(tmp_path, TINY_SPEC.replace("seeds: [0, 1]", "seeds: [1, 0]"), "both.yaml")
    assert main(["train", "--spec", str(both), "--output-dir", str(tmp_path / "both")]) == 0
    summary = (tmp_path / "both" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == ["1", "0", "mean", "std"]
    for row, seed in enumerate((1, 0), start=1):
        one = write_spec(tmp_path, TINY_SPEC.replace("seeds: [0, 1]", f"seeds: [{seed}]"))
        out = tmp_path / f"seed{seed}"
        assert main(["train", "--spec", str(one), "--output-dir", str(out)]) == 0
        for table in ("accuracy_matrix", "per_class", "q_snapshots"):
            name = f"{table}_seed{seed}.csv"
            assert (out / name).read_bytes() == (tmp_path / "both" / name).read_bytes(), name
        name = f"events_seed{seed}.jsonl"
        assert (out / name).read_bytes() == (tmp_path / "both" / name).read_bytes()
        assert summary[row] == (out / "summary.csv").read_text().splitlines()[1]


def test_output_dir_resolution_order(tmp_path, monkeypatch, capsys):
    spec = write_spec(tmp_path, TINY_SPEC + f"output_dir: {tmp_path / 'from_spec'}\n")
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("TALCIL_OUTPUT_DIR", str(env_dir))
    # spec value wins over the environment
    assert main(["train", "--spec", str(spec)]) == 0
    assert (tmp_path / "from_spec").is_dir()
    assert not env_dir.exists()
    # environment used when the spec says nothing
    spec_plain = write_spec(tmp_path, name="plain.yaml")
    assert main(["train", "--spec", str(spec_plain)]) == 0
    assert env_dir.is_dir()


# ---------------------------------------------------------------------------
# simulate-stream / verify-theorem1
# ---------------------------------------------------------------------------


def test_simulate_stream_outputs(tmp_path):
    out_dir = tmp_path / "stream"
    code = main(
        [
            "simulate-stream",
            "--classes", "4", "--tasks", "2", "--per-class", "10",
            "--replay", "2", "--seed", "0", "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    trace = (out_dir / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "step,label"
    assert len(trace) == 1 + 44  # 2*(2*10) + 2 replay * 2 old classes
    s_curves = (out_dir / "s_curves.csv").read_text().strip().split("\n")
    assert s_curves[0] == "step,class,cumulative_positives"
    assert len(s_curves) == 1 + 44 * 4
    q_traj = (out_dir / "q_trajectory.csv").read_text().strip().split("\n")
    assert q_traj[0] == "step,class_id,q_value"
    assert len(q_traj) == 1 + 44 * 4


def test_simulate_stream_uncalibrated_lam_is_domain_error(tmp_path, capsys):
    code = main(
        ["simulate-stream", "--lam", "0.3", "--output-dir", str(tmp_path / "x")]
    )
    assert code == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DomainError"


def test_verify_theorem1_cli(tmp_path, capsys):
    out_dir = tmp_path / "thm"
    code = main(
        [
            "verify-theorem1",
            "--pairs", "20", "--length", "100", "--positives", "25",
            "--seed", "0", "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert "conclusion held in 40/40 pairs" in capsys.readouterr().out
    rows = (out_dir / "theorem1_pairs.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 40  # two lambdas by default
    assert rows[0].startswith("pair_id,lambda,length")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-stream", "--seed", "-1"],
        ["verify-theorem1", "--seed", "-1"],
        ["verify-theorem1", "--pairs", "0"],
        ["verify-theorem1", "--pairs", "-1"],
        ["verify-theorem1", "--lambdas", ","],
        ["ablate", "--spec", "unused.yaml", "--lambdas", ","],
        ["ablate", "--spec", "unused.yaml", "--rs", ","],
        ["bench-loss", "--batch-sizes", ","],
        ["bench-loss", "--repeats", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_meaningless_arguments_are_usage_errors(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output-dir", str(out_dir)])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--classes", "10", "--exponent", "nan"],
        ["calibrate", "--classes", "10", "--exponent=inf"],
        ["simulate-stream", "--exponent", "nan"],
        ["simulate-stream", "--exponent=inf"],
        ["ablate", "--rs", "inf"],
    ],
    ids=" ".join,
)
def test_non_finite_steepness_is_a_domain_error(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    if argv[0] != "calibrate":
        argv = [*argv, "--output-dir", str(out_dir)]
    if argv[0] == "ablate":
        argv = [*argv, "--spec", str(write_spec(tmp_path))]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    record = json.loads(line)
    assert record["error"] == "DomainError"
    assert "< 1" not in record["message"]
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_seed_builds_the_dataset_train_builds(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out_dir = tmp_path / "ablate"
    argv = ["ablate", "--spec", str(spec), "--lambdas", "0.99", "--rs", "1.0"]
    assert main(argv + ["--output-dir", str(out_dir)]) == 0
    lines = (out_dir / "ablation.csv").read_text().splitlines()
    assert [line.split(",")[:4] for line in lines[1:]] == [
        ["ce", "", "", "0"],
        ["ce", "", "", "1"],
        ["tal", "0.99", "1.0", "0"],
        ["tal", "0.99", "1.0", "1"],
    ]
    ce = {line.split(",")[3]: line.split(",")[4:] for line in lines[1:3]}

    ce_spec = write_spec(tmp_path, TINY_SPEC.replace("kind: TAL", "kind: CE"), name="ce.yaml")
    train_dir = tmp_path / "train"
    assert main(["train", "--spec", str(ce_spec), "--output-dir", str(train_dir)]) == 0
    summary = (train_dir / "summary.csv").read_text().splitlines()[1:3]
    assert {line.split(",")[0]: line.split(",")[1:] for line in summary} == ce


@pytest.mark.parametrize(
    "grid",
    [["--lambdas", "0.99,0.99"], ["--lambdas", "0.99,0.995,0.990"], ["--rs", "1,2,1.0"]],
    ids=" ".join,
)
def test_ablate_refuses_a_repeated_grid_value(tmp_path, capsys, grid):
    out_dir = tmp_path / "ablate"
    argv = ["ablate", "--spec", str(write_spec(tmp_path)), *grid, "--output-dir", str(out_dir)]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"] == "DomainError"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "dataset, grid",
    [
        ("{classes: 4, tasks: 4}", ["--lambdas", "0.99", "--rs", "1"]),
        ("{classes: 4, tasks: 2}", ["--rs", "1000"]),
    ],
    ids=["one class per task", "alpha overflows"],
)
def test_ablate_refuses_a_cell_the_dataset_cannot_calibrate(tmp_path, capsys, dataset, grid):
    # a CE spec passes its own checks, but the grid's TAL cells must fit the
    # dataset as a TAL spec must for train: exit 3 before anything trains
    spec = write_spec(tmp_path, f"dataset: {dataset}\nloss: {{kind: CE}}\n")
    out_dir = tmp_path / "ablate"
    assert main(["ablate", "--spec", str(spec), *grid, "--output-dir", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"] == "SpecError"
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# bench-loss
# ---------------------------------------------------------------------------


def test_bench_loss_emits_table(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = main(
        [
            "bench-loss",
            "--batch-sizes", "8,16",
            "--class-counts", "3,6",
            "--repeats", "3",
            "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    lines = (out_dir / "bench.csv").read_text().strip().split("\n")
    assert lines[0] == "batch_size,class_count,ce_seconds,tal_seconds,overhead_seconds"
    assert len(lines) == 1 + 4
    assert "overhead slope" in capsys.readouterr().out


def test_bench_loss_records_its_default_grid_and_the_library_version(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    assert main(["bench-loss", "--repeats", "1", "--output-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["spec"]["batch_sizes"] == list(DEFAULT_BATCH_SIZES)
    assert manifest["spec"]["class_counts"] == list(DEFAULT_CLASS_COUNTS)
    assert manifest["version"] == talcil.__version__


def test_loss_benchmark_needs_a_timed_repeat():
    with pytest.raises(DomainError):
        run_loss_benchmark(repeats=0)


def test_each_timed_loss_call_computes_its_weights(monkeypatch):
    # a QState remembers w(q), so timing one snapshot over and over would
    # time the weight computation once; every call must get a new one
    import talcil.bench
    import talcil.kernel

    counts = {"tal_forward": 0, "negative_weight": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(talcil.bench, "tal_forward")
    counted(talcil.kernel, "negative_weight")
    rows = run_loss_benchmark((4, 8), (3, 5), repeats=3)
    assert len(rows) == 4
    assert counts["tal_forward"] == 4 * (3 + 2)  # two warm-up calls per cell
    assert counts["negative_weight"] == counts["tal_forward"]


def test_bench_loss_rejects_a_grid_without_a_slope(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    argv = ["bench-loss", "--batch-sizes", "8", "--class-counts", "3", "--repeats", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 RuntimeWarning on the way either
        assert main(argv + ["--output-dir", str(out_dir)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"] == "DomainError"
    assert not out_dir.exists()


@pytest.mark.parametrize("batch_sizes", ["0,4", "-1,4"])
def test_bench_loss_with_an_empty_batch_exits_4_before_any_arithmetic(
    tmp_path, capsys, batch_sizes
):
    # a batch of 0 rows used to time a NaN loss after a 0/0 RuntimeWarning,
    # and a negative one failed inside numpy as an internal error (exit 1);
    # "=" passes "-1,4" as a value, not as an option
    out_dir = tmp_path / "bench"
    argv = ["bench-loss", f"--batch-sizes={batch_sizes}", "--class-counts", "3", "--repeats", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--output-dir", str(out_dir)]) == 4
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "DomainError"
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------


@pytest.fixture()
def finished_run(tmp_path):
    spec = write_spec(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out_dir)]) == 0
    return out_dir


def test_plotdata_forgetting_reshape(finished_run, capsys):
    assert main(["plotdata", "--run", str(finished_run), "--what", "forgetting"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "seed,task,after_task,accuracy"
    # 2 seeds x (task0: 2 entries, task1: 1 entry)
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "0"


def test_plotdata_other_kinds_and_file_output(finished_run, tmp_path):
    out_file = tmp_path / "long.csv"
    code = main(
        [
            "plotdata", "--run", str(finished_run),
            "--what", "per-class", "--output", str(out_file),
        ]
    )
    assert code == 0
    header = out_file.read_text().split("\n")[0]
    assert header == "seed,task_id,class_id,precision,recall,support,q_value,precision_defined"
    assert main(["plotdata", "--run", str(finished_run), "--what", "q"]) == 0
    assert main(["plotdata", "--run", str(finished_run), "--what", "accuracy"]) == 0


def test_plotdata_write_failure_leaves_no_file(finished_run, tmp_path, capsys):
    out_file = tmp_path / "plots" / "long.csv"
    real_open = open

    def open_on_a_full_disk(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)

        def write(_text):
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    argv = ["plotdata", "--run", str(finished_run), "--what", "q", "--output", str(out_file)]
    with mock.patch("talcil.output.open", open_on_a_full_disk, create=True):
        assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "OSError"
    assert list(out_file.parent.iterdir()) == []


def test_plotdata_file_and_stdout_carry_the_same_bytes(finished_run, tmp_path, capsys):
    out_file = tmp_path / "long.csv"
    argv = ["plotdata", "--run", str(finished_run), "--what", "accuracy"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--output", str(out_file)]) == 0
    assert out_file.read_text() == printed


def test_plotdata_reads_only_seed_file_names(tmp_path, capsys):
    clean = tmp_path / "clean"
    shutil.copytree(ROOT / "runs" / "demo", clean)
    stray = tmp_path / "stray"
    shutil.copytree(clean, stray)
    shutil.copy(clean / "per_class_seed0.csv", stray / "per_class_seed0_old.csv")
    shutil.copy(clean / "per_class_seed1.csv", stray / "per_class_seedX.csv")
    outputs = []
    for run in (clean, stray):
        assert main(["plotdata", "--run", str(run), "--what", "per-class"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


def _keep_header(text):
    return text.split("\n")[0] + "\n"


def _spoil_a_cell(text):
    return text.replace("0,0,0.", "0,0,x.", 1)


def _lift_a_row(text):
    return text.replace("\n1,0,", "\n1,4,", 1)  # task 4 evaluated after task 1


def _drop_a_cell(text):
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, first.rsplit(",", 1)[0], rest])


def _append(row):
    return lambda text: text + row + "\n"


def _repeat_a_pair(text):
    return text.replace("\n1,1,0.91\n", "\n1,0,0.123\n", 1)  # row count still 5 tasks'


@pytest.mark.parametrize(
    "name, damage, what",
    [
        ("accuracy_matrix_seed0.csv", _keep_header, "accuracy"),
        ("accuracy_matrix_seed0.csv", _keep_header, "forgetting"),
        ("accuracy_matrix_seed0.csv", _spoil_a_cell, "accuracy"),
        ("accuracy_matrix_seed0.csv", _drop_a_cell, "accuracy"),
        ("accuracy_matrix_seed3.csv", _lift_a_row, "forgetting"),
        ("accuracy_matrix_seed0.csv", _append("300,0,0.5"), "forgetting"),
        ("accuracy_matrix_seed0.csv", _append("1,0,0.123"), "forgetting"),
        ("accuracy_matrix_seed0.csv", _repeat_a_pair, "forgetting"),
        ("accuracy_matrix_seed0.csv", _append("10000000000,0,0.5"), "accuracy"),
        ("per_class_seed2.csv", _drop_a_cell, "per-class"),
        ("q_snapshots_seed1.csv", _keep_header, "q"),
    ],
    ids=[
        "header-only",
        "header-only-forgetting",
        "non-numeric",
        "missing-cell",
        "upper-triangle",
        "task-beyond-the-matrix",
        "duplicated-pair",
        "repeated-pair",
        "huge-task-id",
        "missing-cell-per-class",
        "seed-dropped",
    ],
)
def test_plotdata_malformed_run_file_exits_3_with_nothing_written(
    tmp_path, capsys, name, damage, what
):
    # these used to exit 1 (an internal error), or 0 with a short row,
    # without the seed's rows, or from a padded or overwritten accuracy matrix
    run = tmp_path / "run"
    shutil.copytree(ROOT / "runs" / "demo", run)
    path = run / name
    path.write_text(damage(path.read_text()))
    out_file = tmp_path / "long.csv"
    assert main(["plotdata", "--run", str(run), "--what", what, "--output", str(out_file)]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SpecError" and name in record["message"]
    assert not out_file.exists()


def _latin1_byte(path):
    path.write_bytes(path.read_bytes() + b"\xe9\n")


def _directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("damage", [_latin1_byte, _directory], ids=["undecodable", "directory"])
def test_plotdata_unreadable_run_file_exits_3_with_nothing_written(tmp_path, capsys, damage):
    run = tmp_path / "run"
    shutil.copytree(ROOT / "runs" / "demo", run)
    damage(run / "q_snapshots_seed1.csv")
    out_file = tmp_path / "long.csv"
    assert main(["plotdata", "--run", str(run), "--what", "q", "--output", str(out_file)]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SpecError" and "q_snapshots_seed1.csv" in record["message"]
    assert not out_file.exists()


def test_plotdata_missing_run_dir(tmp_path, capsys):
    assert main(["plotdata", "--run", str(tmp_path / "nope"), "--what", "q"]) == 3


# ---------------------------------------------------------------------------
# console script wiring
# ---------------------------------------------------------------------------


def test_console_script_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts["talcil"] == "talcil.cli:main"

    src = str(Path(talcil.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "talcil", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    proc = run("calibrate", "--classes", "7", "--exponent", "2")
    assert proc.returncode == 0, proc.stderr
    assert "alpha=" in proc.stdout
    # the exit code reaches the shell
    assert run("calibrate", "--classes", "1", "--exponent", "2").returncode == 4


# ---------------------------------------------------------------------------
# runtime invariants under python -O
# ---------------------------------------------------------------------------


def test_library_states_no_assert():
    # ``python -O`` strips assert statements, so every runtime invariant
    # of the library must be an explicit raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "talcil").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_divergent_train_exits_5_under_optimize(tmp_path):
    spec, out = write_spec(tmp_path, DIVERGENT_SPEC), tmp_path / "out"
    src = str(Path(talcil.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-W", "ignore::RuntimeWarning", "-m", "talcil",
         "train", "--spec", str(spec), "--output-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 5, proc.stderr
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["error"] == "TrainingError" and record["step"] == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# spec validation under random edits
# ---------------------------------------------------------------------------

# The demo spec cut to one seed, one epoch and one task of two classes so
# each example runs in milliseconds.  Two class means can be placed at any
# dimension, and every small number below keeps the run feasible, so a
# valid edit must run and anything else must be rejected as a spec error.
_DEMO = yaml.safe_load((ROOT / "configs" / "demo.yaml").read_text())
_BASE = {
    **_DEMO,
    "dataset": {**_DEMO["dataset"], "classes": 2, "tasks": 1, "per_class": 12, "test_per_class": 5},
    "schedule": {**_DEMO["schedule"], "epochs": 1, "replay_per_class": 3},
    "seeds": [0],
}
_PATHS = (
    [(block,) for block in ("dataset", "schedule", "loss", "seeds", "output_dir")]
    + [(block, key) for block in ("dataset", "schedule", "loss") for key in _DEMO[block]]
    + [("loss", "exploratory")]
)
_VALUES = st.sampled_from(
    [None, True, False, -1, 0, 1, 2, 3, 2.0, 1.5, 0.5, 7.5, 1e-9,
     math.nan, math.inf, -math.inf, "", "CE", "TAL", [], [0, 0], [1], {}]
)


@given(path=st.sampled_from(_PATHS), value=_VALUES)
@settings(max_examples=60, deadline=None)
def test_edited_demo_spec_runs_or_exits_3_with_nothing_written(path, value):
    spec = copy.deepcopy(_BASE)
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.yaml"
        spec_path.write_text(yaml.safe_dump(spec))
        out_dir = Path(tmp) / "out"
        code = main(["train", "--spec", str(spec_path), "--output-dir", str(out_dir)])
        assert code == 0 or (code == 3 and not out_dir.exists()), (path, value, code)
