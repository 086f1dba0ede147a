"""talcil benchmark: drives the CLI in one warm process and prints metrics.

    python3 perfbench/run.py --workload train-demo --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the script finds the repository root
from its own location and imports ``talcil`` from ``src/``.

A run with ``--trace 0`` times whole workload iterations through
``talcil.cli.main`` with nothing wrapped and prints the end-to-end
metrics.  They are CPU seconds of this process (user + system): on a
shared host the wall clock also counts other tenants' load, which moved
run medians by up to a quarter, so wall time is printed as information
only.  Set-up time is the CPU time of fresh interpreters, each importing
``talcil.cli`` and loading the workload's spec.  Peak memory is the
median peak resident set of fresh interpreters that run only the workload's
commands, so the benchmark's own gates do not count.  A run with ``--trace 1``
interleaves untraced and traced iterations; the traced ones wrap the
functions in ``TARGETS`` at every name they are bound to and report
per-layer call counts and wall-clock self time.  Every iteration's outputs must
pass the workload's gates, be byte-identical to the first iteration's
(traced ones and fresh interpreters' included), and nothing may be
written under ``runs/``.  A run in which any of that fails prints no
metrics and exits with code 1.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it starting with
``#`` record the environment and each metric's sample count and
quartiles.  Spans of the last traced iteration go to
``perfbench/out/spans_<workload>_seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "out"
REQUIRED = ("src/talcil/cli.py", "configs/demo.yaml", "runs/demo/manifest.json")
SETUP_REPEATS = 9
RSS_REPEATS = 3
MIN_ITERATIONS = 2  # per kind (untraced, traced): the determinism gate needs two

sys.path.insert(0, str(HERE))
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TARGETS = (
    Target("loss", "training_step", per_call=True),
    Target("loss", "tal_forward", per_call=True),
    Target("loss", "ce_forward", per_call=True),
    Target("loss", "TalConfig.for_classes"),
    Target("kernel", "update_batched", per_call=True),
    Target("kernel", "update_tal", per_call=True),
    Target("sim", "Classifier.logits", per_call=True),
    Target("sim", "Classifier.train_batch", per_call=True),
    Target("sim", "Classifier.predict"),
    Target("sim", "train_incremental"),
    Target("sim", "make_gaussian_tasks"),
    Target("metrics", "confusion_and_prf"),
    Target("calibration", "solve_calibration", keys=True),
    Target("output", "write_csv"),
    Target("output", "write_jsonl"),
    Target("output", "write_manifest"),
    Target("streams", "generate_stream"),
    Target("streams", "SupervisionTrace.cumulative_positives"),
    Target("streams", "sample_dominance_pair", per_call=True),
    Target("streams", "verify_theorem1", per_call=True),
    Target("cli", "main"),
    Target("config", "load_spec"),
)
# .bytes of a writer: the size of the output files with its suffix
OUTPUT_BYTES = {"output.write_csv": ".csv", "output.write_jsonl": ".jsonl"}
LAYERS = ("config", "calibration", "kernel", "loss", "sim", "metrics", "streams", "output", "cli")

END_TO_END = (
    ("cpu_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a ``--trace 1`` run prints."""
    out = []
    for t in TARGETS:
        out += [(f"{t.name}.calls", "count", "lower"), (f"{t.name}.self_s", "s", "lower")]
        if t.per_call:
            out.append((f"{t.name}.us_per_call", "us", "lower"))
        if t.name in OUTPUT_BYTES:
            out.append((f"{t.name}.bytes", "bytes", "lower"))
        if t.keys:
            out.append((f"{t.name}.repeat_ratio", "ratio", "lower"))
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out += [
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("pairs_per_s", "1/s", "higher"),
        ("error_rate", "ratio", "lower"),
    ]
    return out


# -- environment --------------------------------------------------------------


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }


# -- measuring ----------------------------------------------------------------


# The peak is read from VmHWM, which belongs to the interpreter's own
# address space: ru_maxrss of a process started by fork/vfork and exec
# carries over its parent's peak on Linux.
RSS_CODE = """\
import contextlib, json, os, re, sys
sys.path.insert(0, sys.argv[1])
import talcil.cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    codes = [talcil.cli.main(argv) for argv in json.loads(sys.argv[2])]
if any(codes):
    sys.exit(f"commands returned {codes}")
with open("/proc/self/status") as fh:
    print(int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read())[1]) / 1024.0)
"""

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import talcil.cli, talcil.config
plan = json.loads(sys.argv[2])
parser = talcil.cli.build_parser()
for argv in plan["argv"]:
    parser.parse_args(argv)
for spec in plan["specs"]:
    talcil.config.load_spec(spec)
"""


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(plan) -> float:
    """CPU seconds a fresh interpreter spends importing the CLI and loading the spec."""
    payload = json.dumps({"argv": [argv for _, argv in plan.commands], "specs": plan.setup_specs})
    before = children_cpu()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), payload],
        cwd=ROOT,
        capture_output=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-500:]}")
    return children_cpu() - before


def digest_tree(path: Path) -> dict[str, tuple[str, int]]:
    """(SHA-256, size) of every file under ``path``, by relative name."""
    tree = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            with open(p, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            tree[str(p.relative_to(path))] = (digest, p.stat().st_size)
    return tree


def snapshot(path: Path) -> list[tuple]:
    if not path.exists():
        return []
    return [(str(p), p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(path.rglob("*"))]


class Runner:
    def __init__(self, workload, seed: int, cli):
        WORK.mkdir(parents=True, exist_ok=True)
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.work.mkdir()
        self.plan = workload.plan(ROOT, self.work, seed)
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, tuple[str, int]] | None = None
        self.tree: dict[str, tuple[str, int]] = {}  # output tree of the last iteration
        self.count = 0

    def _next_out(self) -> Path:
        out = self.work / f"iter{self.count}"
        self.count += 1
        return out

    def iteration(self, tracer: Tracer | None = None):
        """Run every command of the workload once.

        Returns (CPU seconds per command label, wall seconds of the whole
        iteration), or None when a command or a gate failed.
        """
        out = self._next_out()
        gc.collect()
        times, wall, ok = {}, 0.0, True
        sink = io.StringIO()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            for label, argv in self.plan.commands:
                self.attempted += 1
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = self.cli.main([*argv, "--output-dir", str(out / label)])
                except (Exception, SystemExit) as exc:
                    code = f"{type(exc).__name__}: {exc}"
                times[label] = time.process_time() - c0
                wall += time.perf_counter() - w0
                if code != 0:
                    self.failed += 1
                    ok = False
                    self.failures.append(f"{label} returned {code}: {sink.getvalue()[-300:]}")
        finally:
            if tracer is not None:
                tracer.restore()
        ok = ok and self._gate(out)
        shutil.rmtree(out, ignore_errors=True)
        return (times, wall) if ok else None

    def peak_rss_mb(self) -> float | None:
        """Peak resident MB of a fresh interpreter that runs only the workload's
        commands, or None when a command or a gate failed."""
        out = self._next_out()
        commands = [[*argv, "--output-dir", str(out / label)] for label, argv in self.plan.commands]
        self.attempted += len(commands)
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CODE, str(ROOT / "src"), json.dumps(commands)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        ok = proc.returncode == 0
        if not ok:
            self.failed += len(commands)
            self.failures.append(f"peak-RSS interpreter exited {proc.returncode}: "
                                 f"{proc.stderr[-300:]}")
        ok = ok and self._gate(out)
        shutil.rmtree(out, ignore_errors=True)
        return float(proc.stdout.split()[-1]) if ok else None

    def _gate(self, out: Path) -> bool:
        """Check one iteration's output tree; False (and the failures noted) if it fails."""
        problems = self.plan.check(out)
        self.tree = digest_tree(out)
        if self.reference is None:
            self.reference = self.tree
        elif self.tree != self.reference:
            changed = sorted(k for k in self.tree.keys() | self.reference.keys()
                             if self.tree.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from the first iteration: {changed}")
        if problems:
            self.failed += len(self.plan.commands)
            self.failures.extend(problems)
        return not problems

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(runner: Runner, seconds: float) -> dict[str, list[float]]:
    plan = runner.plan
    samples = {"cpu_s": [], "steps_per_s": [], "wall_s": []}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples["cpu_s"]) < MIN_ITERATIONS:
        result = runner.iteration()
        if result is None:
            break
        times, wall = result
        samples["cpu_s"].append(sum(times.values()))
        samples["steps_per_s"].append(plan.steps / sum(times[label] for label in plan.rate_of))
        samples["wall_s"].append(wall)
    return samples


def layer_sample(tracer: Tracer, tree: dict[str, tuple[str, int]]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, by name; ``tree`` is its output tree."""
    calls, total, own = tracer.summary()
    sample = {}
    for i, t in enumerate(TARGETS):
        sample[f"{t.name}.calls"] = calls[i]
        sample[f"{t.name}.self_s"] = own[i]
        if t.per_call:
            sample[f"{t.name}.us_per_call"] = 1e6 * total[i] / calls[i] if calls[i] else 0.0
        if t.name in OUTPUT_BYTES:
            suffix = OUTPUT_BYTES[t.name]
            sample[f"{t.name}.bytes"] = sum(size for name, (_, size) in tree.items()
                                            if name.endswith(suffix))
        if t.keys:
            keys = len(tracer.keys[i])
            sample[f"{t.name}.repeat_ratio"] = calls[i] / keys if keys else 0.0
    for layer in LAYERS:
        sample[f"{layer}.errors"] = tracer.errors[layer]
    sample["trace.spans"] = len(tracer.spans)
    return sample


def traced(runner: Runner, seconds: float, workload: str, seed: int) -> dict[str, list[float]]:
    """Alternate untraced and traced iterations; per-layer samples per traced one."""
    plan = runner.plan
    tracer = Tracer("talcil", TARGETS)
    untraced_cpu, traced_cpu, pairs_per_s, layer_samples = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(layer_samples) < MIN_ITERATIONS:
        result = runner.iteration()
        if result is None:
            break
        untraced_cpu.append(sum(result[0].values()))
        if plan.pairs:
            pairs_per_s.append(plan.pairs / result[0]["verify-theorem1"])
        result = runner.iteration(tracer)
        if result is None:
            break
        traced_cpu.append(sum(result[0].values()))
        layer_samples.append(layer_sample(tracer, runner.tree))
    if not layer_samples:
        return {}
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans_{workload}_seed{seed}.csv")
    check_completeness(runner, layer_samples)
    samples = {name: [s[name] for s in layer_samples] for name in layer_samples[0]}
    overhead = statistics.median(traced_cpu) - statistics.median(untraced_cpu)
    samples["trace.overhead_s"] = [overhead]
    samples["pairs_per_s"] = pairs_per_s
    return samples


def check_completeness(runner: Runner, layer_samples: list[dict]) -> None:
    """Traced counts must repeat exactly and the call counts match the workload's inputs."""
    problems = [
        f"{name} changed between traced iterations"
        for name in layer_samples[0]
        if name.endswith((".calls", ".bytes", ".errors", ".spans"))
        and len({s[name] for s in layer_samples}) > 1
    ]
    first = layer_samples[0]
    for name, want in runner.plan.exact_calls.items():
        seen = first[f"{name}.calls"]
        if seen != want:
            problems.append(f"tracer saw {seen} calls of {name}, inputs need {want}")
    for name, least in runner.plan.minimum_calls.items():
        seen = first[f"{name}.calls"]
        if seen < least:
            problems.append(f"tracer saw {seen} calls of {name}, inputs need at least {least}")
    runner.failures.extend(problems)
    runner.failed += len(problems)


# -- entry --------------------------------------------------------------------


def run_one(args) -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a talcil checkout, missing {missing}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import talcil.cli as cli

    print("# env " + json.dumps(environment(blas_threads), sort_keys=True))
    runs_before = snapshot(ROOT / "runs")
    runner = Runner(WORKLOADS[args.workload], args.seed, cli)
    try:
        runner.iteration()  # warm-up: caches, lazy imports, first-call costs
        if args.trace:
            samples = traced(runner, args.seconds, args.workload, args.seed)
            specs = per_layer_metrics()
            samples["error_rate"] = [runner.failed / max(runner.attempted, 1)]
        else:
            samples = end_to_end(runner, args.seconds)
            samples["setup_s"] = [time_setup(runner.plan) for _ in range(SETUP_REPEATS)]
            rss = [runner.peak_rss_mb() for _ in range(RSS_REPEATS)]
            samples["peak_rss_mb"] = [v for v in rss if v is not None]
            specs = list(END_TO_END)
    finally:
        runner.close()
    if snapshot(ROOT / "runs") != runs_before:
        runner.failures.append("something was written under runs/")
        runner.failed += 1

    for failure in runner.failures:
        print(f"perfbench: FAIL {failure}", file=sys.stderr)
    if runner.failures:
        # a failed run reports no timings, so it cannot read as the fastest one
        print(json.dumps({"correct": False, "attempted": runner.attempted,
                          "failed": min(max(runner.failed, 1), runner.attempted), "metrics": {}}))
        return 1

    metrics = {}
    for name, unit, _better in specs:
        values = samples.get(name) or [0.0]  # pairs_per_s where the workload checks no pairs
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"# {name} median={med:.6g} {unit} p25={q1:.6g} p75={q3:.6g} n={len(values)}")
    if samples.get("wall_s"):
        # wall time depends on the host's other load, so it is shown, not bounded
        q1, med, q3 = quartiles(samples["wall_s"])
        print(f"# info wall_s median={med:.6g} s p25={q1:.6g} p75={q3:.6g} n={len(samples['wall_s'])}")
    result = {"correct": True, "attempted": runner.attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name:12s} {line}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
