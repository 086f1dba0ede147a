"""Every name the benchmark traces is still in the library, and the
training loop still makes the calls the benchmark counts exactly.

``perfbench/run.py`` wraps each function of its ``TARGETS`` by name; a
renamed or deleted function would otherwise fail only a benchmark run.
Its exact-call gate demands one loss call (``training_step`` or
``ce_forward``) and one ``update_batched`` call per cell per step, one
``confusion_and_prf`` call per cell per task, one ``update_tal`` call per
stream step and one ``verify_theorem1`` call per dominance pair, and its
minimum-call gate at least one ``solve_calibration`` call per TAL cell
per task; the tests below trace tiny runs with the benchmark's own tracer
and check the same counts.
"""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

from talcil.cli import main

ROOT = Path(__file__).resolve().parents[1]


def benchmark_targets():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)  # puts perfbench/ on sys.path for its imports
    finally:
        sys.path[:] = saved
    return module.TARGETS


@pytest.mark.parametrize("target", benchmark_targets(), ids=lambda target: target.name)
def test_traced_name_resolves_in_the_library(target):
    owner = importlib.import_module(f"talcil.{target.layer}")
    *parents, attr = target.path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # the tracer replaces a method in its class's own namespace
    assert attr in vars(owner), f"talcil.{target.name} is gone"


# ---------------------------------------------------------------------------
# the benchmark's exact-call gate, on tiny runs
# ---------------------------------------------------------------------------

GATED_SPEC = """\
dataset: {classes: 4, dim: 8, tasks: 2, per_class: 30, test_per_class: 20, sep: 2.5}
schedule: {replay_per_class: 5, epochs: 3, batch_size: 16, lr: 0.1, hidden: HIDDEN}
loss: {kind: TAL, lambda: 0.995, r: 1.0}
seeds: [0, 1]
"""
SEEDS, TASKS, EPOCHS = 2, 2, 3
# the pool of task t is its 2 new classes' 30 samples plus 5 replayed per old
# class; batches of 16 divide neither 60 nor 70, so each epoch ends short
STEPS = sum(EPOCHS * -(-(2 * 30 + 5 * 2 * t) // 16) for t in range(TASKS))


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRAINING_GATES = ("loss.training_step", "loss.ce_forward", "kernel.update_batched",
                  "metrics.confusion_and_prf", "calibration.solve_calibration")


def traced_calls(*argvs, names=TRAINING_GATES):
    """Call counts of the named functions over CLI runs, one per argv."""
    tracer_module = load_tracer()
    targets = [tracer_module.Target(*name.split(".")) for name in names]
    tracer = tracer_module.Tracer("talcil", targets)
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the exploratory r < 1 cells
            for argv in argvs:
                assert main(argv) == 0
    finally:
        tracer.restore()
    return dict(zip(names, tracer.summary()[0]))


@pytest.mark.parametrize("hidden", [0, 8])
def test_train_makes_one_gated_call_per_step(tmp_path, hidden):
    spec = tmp_path / "spec.yaml"
    spec.write_text(GATED_SPEC.replace("HIDDEN", str(hidden)))
    calls = traced_calls(["train", "--spec", str(spec), "--output-dir", str(tmp_path / "out")])
    # every seed calibrates its own loss at every task boundary
    assert calls.pop("calibration.solve_calibration") >= SEEDS * TASKS
    assert calls == {
        "loss.training_step": SEEDS * STEPS,
        "loss.ce_forward": 0,
        "kernel.update_batched": SEEDS * STEPS,
        "metrics.confusion_and_prf": SEEDS * TASKS,
    }


def test_ablate_makes_one_gated_call_per_cell_and_step(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text(GATED_SPEC.replace("HIDDEN", "0"))
    grid = ["--lambdas", "0.99,0.995", "--rs", "0.5,1,2"]  # CE, exploratory and strict TAL
    out = tmp_path / "out"
    calls = traced_calls(["ablate", "--spec", str(spec), *grid, "--output-dir", str(out)])
    tal_cells, cells = 2 * 3, 2 * 3 + 1
    assert calls.pop("calibration.solve_calibration") >= tal_cells * SEEDS * TASKS
    assert calls == {
        "loss.training_step": tal_cells * SEEDS * STEPS,
        "loss.ce_forward": SEEDS * STEPS,
        "kernel.update_batched": cells * SEEDS * STEPS,
        "metrics.confusion_and_prf": cells * SEEDS * TASKS,
    }


def test_stream_commands_make_one_gated_call_per_step_and_pair(tmp_path):
    stream = ["--classes", "4", "--tasks", "2", "--per-class", "10", "--replay", "3"]
    theorem = ["--pairs", "7", "--lambdas", "0.9,0.99"]
    calls = traced_calls(
        ["simulate-stream", *stream, "--output-dir", str(tmp_path / "stream")],
        ["verify-theorem1", *theorem, "--output-dir", str(tmp_path / "theorem")],
        names=("kernel.update_tal", "streams.verify_theorem1"),
    )
    # task 0 streams its 2 new classes' 10 samples each; task 1 adds 3
    # replayed samples of each of the 2 old classes
    steps = 2 * 10 + (2 * 10 + 2 * 3)
    assert calls == {"kernel.update_tal": steps, "streams.verify_theorem1": 2 * 7}
