"""The benchmark's workloads: the CLI commands each iteration runs, the
work those commands must do, and the gates their outputs must pass.

Every workload is derived from the workload seed ``s``.  It shifts the
spec seeds (``train-demo`` runs seeds s..s+4, ``ablate-grid`` seeds
s..s+ABLATE_SEEDS-1), the stream shuffle seed and the theorem RNG seed.
At s = 0 ``train-demo`` is exactly ``talcil train --spec
configs/demo.yaml`` and its files must match the committed ``runs/demo``
byte for byte; at other seeds the invariant gates and the runner's
determinism gate still apply.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

SPEC = "configs/demo.yaml"
GOLDEN = "runs/demo"
DEMO_SEEDS = 5
# One seed keeps an ablate-grid iteration near 4 s, so a run holds
# several iterations; every one of the 21 cells still runs.
ABLATE_SEEDS = 1
ABLATE_LAMBDAS = (0.99, 0.995, 0.999, 0.9995)
ABLATE_RS = (0.2, 0.5, 1.0, 2.0, 5.0)
STREAM = {"classes": 10, "tasks": 5, "per_class": 500, "replay": 20, "lam": 0.995}
THEOREM = {"lambdas": (0.9, 0.99), "pairs": 500}


@dataclass
class Plan:
    """What one iteration of a workload runs and what it must produce."""

    commands: list[tuple[str, list[str]]]  # (label, talcil argv without --output-dir)
    setup_specs: list[str]  # spec files a fresh interpreter loads when set-up is timed
    steps: int  # tracker steps per iteration, counted over the ``rate_of`` commands
    rate_of: tuple[str, ...]
    check: Callable[[Path], list[str]]  # invariant gate on one iteration's output tree
    exact_calls: dict[str, int]  # traced call counts the inputs fix exactly
    minimum_calls: dict[str, int] = field(default_factory=dict)
    pairs: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: Callable[[Path, Path, int], Plan]  # (checkout root, work dir, seed)


# -- shared helpers ---------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _in_unit(value: str) -> bool:
    return 0.0 <= float(value) <= 1.0


def _q_max(lam: float) -> float:
    return lam / (1.0 - lam)


def _spec_with_seeds(root: Path, work: Path, seeds: list[int]) -> Path:
    """The demo spec with its seed list replaced (the spec itself at s = 0)."""
    demo = root / SPEC
    data = yaml.safe_load(demo.read_text())
    if data["seeds"] == seeds:
        return demo
    data["seeds"] = seeds
    path = work / f"spec_seeds_{seeds[0]}_{len(seeds)}.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


def _sgd_steps_per_seed(spec: dict) -> tuple[int, int]:
    """(SGD steps, tasks) one seed of the spec trains for."""
    d, s = spec["dataset"], spec["schedule"]
    width = d["classes"] // d["tasks"]
    replay = min(s["replay_per_class"], d["per_class"])
    steps = sum(
        s["epochs"] * math.ceil((width * d["per_class"] + replay * width * t) / s["batch_size"])
        for t in range(d["tasks"])
    )
    return steps, d["tasks"]


def compare_trees(produced: Path, golden: Path) -> list[str]:
    """Byte-compare two directories; an empty list means identical."""
    want = sorted(p.name for p in golden.iterdir())
    have = sorted(p.name for p in produced.iterdir())
    if want != have:
        return [f"file set differs from {golden}: {sorted(set(want) ^ set(have))}"]
    failures = []
    for name in want:
        a, b = (produced / name).read_bytes(), (golden / name).read_bytes()
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            failures.append(f"{name} differs from {golden / name} at byte {at}")
    return failures


# -- train-demo -------------------------------------------------------------


def _train_demo(root: Path, work: Path, seed: int) -> Plan:
    seeds = list(range(seed, seed + DEMO_SEEDS))
    spec_path = _spec_with_seeds(root, work, seeds)
    spec = yaml.safe_load(spec_path.read_text())
    steps, tasks = _sgd_steps_per_seed(spec)
    q_max = _q_max(spec["loss"]["lambda"])
    golden = root / GOLDEN if seed == 0 else None

    def check(out: Path) -> list[str]:
        out = out / "train"
        if golden is not None:
            return compare_trees(out, golden)
        failures = []
        expected = {"summary.csv", "manifest.json"}
        for s in seeds:
            expected |= {
                f"accuracy_matrix_seed{s}.csv",
                f"per_class_seed{s}.csv",
                f"q_snapshots_seed{s}.csv",
                f"events_seed{s}.jsonl",
            }
        if {p.name for p in out.iterdir()} != expected:
            return [f"train wrote {sorted(p.name for p in out.iterdir())}"]
        for s in seeds:
            accuracy = _rows(out / f"accuracy_matrix_seed{s}.csv")
            if not all(_in_unit(r["accuracy"]) for r in accuracy):
                failures.append(f"seed {s}: accuracy outside [0, 1]")
            per_class = _rows(out / f"per_class_seed{s}.csv")
            rates = [r["recall"] for r in per_class] + [r["precision"] for r in per_class]
            if not all(v == "" or _in_unit(v) for v in rates):
                failures.append(f"seed {s}: precision or recall outside [0, 1]")
            q_rows = per_class + _rows(out / f"q_snapshots_seed{s}.csv")
            if not all(0.0 <= float(r["q_value"]) < q_max for r in q_rows):
                failures.append(f"seed {s}: q_value outside [0, q_max)")
            events = (out / f"events_seed{s}.jsonl").read_text().splitlines()
            if len(events) != steps:
                failures.append(f"seed {s}: {len(events)} events, expected {steps}")
        summary = {r["seed"]: r for r in _rows(out / "summary.csv")}
        if not all(_in_unit(summary[str(s)][k]) for s in seeds for k in ("a_mean", "a_last")):
            failures.append("summary accuracy outside [0, 1]")
        return failures

    total = DEMO_SEEDS * steps
    return Plan(
        commands=[("train", ["train", "--spec", str(spec_path)])],
        setup_specs=[str(spec_path)],
        steps=total,
        rate_of=("train",),
        check=check,
        exact_calls={
            "loss.training_step": total,
            "kernel.update_batched": total,
            "metrics.confusion_and_prf": DEMO_SEEDS * tasks,
        },
        # one calibration per task boundary per seed is the least the inputs need
        minimum_calls={"calibration.solve_calibration": DEMO_SEEDS * tasks},
    )


# -- ablate-grid ------------------------------------------------------------


def _ablate_grid(root: Path, work: Path, seed: int) -> Plan:
    seeds = list(range(seed, seed + ABLATE_SEEDS))
    spec_path = _spec_with_seeds(root, work, seeds)
    spec = yaml.safe_load(spec_path.read_text())
    steps, tasks = _sgd_steps_per_seed(spec)
    tal_cells = len(ABLATE_LAMBDAS) * len(ABLATE_RS)
    expected_keys = {("ce", None, None, s) for s in seeds} | {
        ("tal", lam, r, s) for lam in ABLATE_LAMBDAS for r in ABLATE_RS for s in seeds
    }

    def cell(row) -> tuple:
        lam, r = (float(row[k]) if row[k] else None for k in ("lambda", "r"))
        return (row["loss"], lam, r, int(row["seed"]))

    def check(out: Path) -> list[str]:
        out = out / "ablate"
        failures = []
        rows = _rows(out / "ablation.csv")
        keys = [cell(r) for r in rows]
        if len(keys) != len(expected_keys) or set(keys) != expected_keys:
            wrong = sorted(set(keys) ^ expected_keys, key=str)
            failures.append(f"ablation.csv: {len(keys)} rows, cells {wrong} missing or extra")
        if not all(_in_unit(r["a_mean"]) and _in_unit(r["a_last"]) for r in rows):
            failures.append("ablation accuracy outside [0, 1]")
        summary = _rows(out / "ablation_summary.csv")
        if len(summary) != tal_cells + 1:
            failures.append(f"ablation_summary.csv: {len(summary)} rows, not {tal_cells + 1}")
        return failures

    runs = (tal_cells + 1) * ABLATE_SEEDS
    return Plan(
        commands=[
            (
                "ablate",
                [
                    "ablate",
                    "--spec",
                    str(spec_path),
                    "--lambdas",
                    ",".join(map(repr, ABLATE_LAMBDAS)),
                    "--rs",
                    ",".join(map(repr, ABLATE_RS)),
                ],
            )
        ],
        setup_specs=[str(spec_path)],
        steps=runs * steps,
        rate_of=("ablate",),
        check=check,
        exact_calls={
            "loss.training_step": tal_cells * ABLATE_SEEDS * steps,
            "loss.ce_forward": ABLATE_SEEDS * steps,
            "kernel.update_batched": runs * steps,
            "metrics.confusion_and_prf": runs * tasks,
        },
        minimum_calls={"calibration.solve_calibration": tal_cells * ABLATE_SEEDS * tasks},
    )


# -- stream-lab -------------------------------------------------------------


def _stream_lab(root: Path, work: Path, seed: int) -> Plan:
    c, tasks, per, replay = (STREAM[k] for k in ("classes", "tasks", "per_class", "replay"))
    width = c // tasks
    steps = sum(width * per + replay * width * t for t in range(tasks))
    pairs = len(THEOREM["lambdas"]) * THEOREM["pairs"]
    q_max = _q_max(STREAM["lam"])

    def check(out: Path) -> list[str]:
        failures = []
        sim, thm = out / "simulate-stream", out / "verify-theorem1"
        labels = _rows(sim / "trace.csv")
        if len(labels) != steps or not all(0 <= int(r["label"]) < c for r in labels):
            failures.append(f"trace.csv: {len(labels)} steps, expected {steps} labels in [0, {c})")
        q_rows = _rows(sim / "q_trajectory.csv")
        if len(q_rows) != steps * c:
            failures.append(f"q_trajectory.csv: {len(q_rows)} rows, expected {steps * c}")
        if not all(0.0 <= float(r["q_value"]) < q_max for r in q_rows):
            failures.append("q_trajectory.csv: q_value outside [0, q_max)")
        if len(_rows(sim / "s_curves.csv")) != steps * c:
            failures.append("s_curves.csv: wrong row count")
        verdicts = _rows(thm / "theorem1_pairs.csv")
        if len(verdicts) != pairs or not all(r["conclusion_held"] == "1" for r in verdicts):
            failures.append(f"theorem1_pairs.csv: not every one of {pairs} pairs held")
        manifest = json.loads((thm / "manifest.json").read_text())
        if manifest["seeds"] != [seed]:
            failures.append("verify-theorem1 manifest records the wrong seed")
        return failures

    return Plan(
        commands=[
            (
                "simulate-stream",
                [
                    "simulate-stream",
                    "--classes", str(c),
                    "--tasks", str(tasks),
                    "--per-class", str(per),
                    "--replay", str(replay),
                    "--lam", repr(STREAM["lam"]),
                    "--seed", str(seed),
                ],
            ),
            (
                "verify-theorem1",
                [
                    "verify-theorem1",
                    "--pairs", str(THEOREM["pairs"]),
                    "--lambdas", ",".join(map(repr, THEOREM["lambdas"])),
                    "--seed", str(seed),
                ],
            ),
        ],
        setup_specs=[],
        steps=steps,
        rate_of=("simulate-stream",),
        check=check,
        exact_calls={"kernel.update_tal": steps, "streams.verify_theorem1": pairs},
        pairs=pairs,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-demo",
            "the demo spec users run most; per-step call overhead dominates; "
            "runs/demo byte-checks it",
            _train_demo,
        ),
        Workload(
            "ablate-grid",
            "21 loss cells share one label stream: CE path, exploratory r<1 and Newton calibration",
            _ablate_grid,
        ),
        Workload(
            "stream-lab",
            "tracker stream and theorem check with no training: "
            "CSV output and stream sampling dominate",
            _stream_lab,
        ),
    )
}
