#!/usr/bin/env python3
"""Record benchmark runs of a checkout in BENCH_<workload>.json.

For each workload the checkout's ``BENCHMARK.json`` lists, runs
``<checkout>/perfbench/run.py --workload W --seed 0 --trace 0`` in a
subprocess and appends one entry to ``BENCH_<workload>.json`` at the
root of this repository.  An entry holds the commit the checkout was
made from, the checkout's absolute path (``peak_rss_mb`` moves with the
name of the directory a checkout sits in), the run's ``# env`` line,
each metric's median, p25, p75 and sample count, and the run's
``correct`` and ``failed``.  A run that is not ``"correct": true`` is
refused: the script exits 1 and writes nothing for that workload.

Run (a checkout unpacked with ``git archive``, say):
    python scripts/bench_record.py --checkout DIR --commit SHA
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRIC_LINE = re.compile(r"# (\S+) median=(\S+) .*p25=(\S+) p75=(\S+) n=(\d+)$")


def parse_run(stdout: str, commit: str, checkout: Path) -> dict:
    """The entry for one ``run.py --trace 0`` stdout of ``checkout``;
    ``ValueError`` unless it is correct."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        raise ValueError(f"run is not correct: {lines[-1] if lines else 'no output'}")
    [env] = [json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")]
    quartiles = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            name, med, p25, p75, n = match.groups()
            quartiles[name] = {"median": float(med), "p25": float(p25), "p75": float(p75), "n": int(n)}
    metrics = {name: {**quartiles[name], "unit": m["unit"]} for name, m in result["metrics"].items()}
    return {"commit": commit, "checkout": str(checkout.resolve()), "env": env,
            "metrics": metrics, "correct": True, "failed": result["failed"]}


def append_entry(path: Path, entry: dict) -> None:
    """Add ``entry`` to the JSON list in ``path`` (a new list if there is none)."""
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(entries, indent=1) + "\n")
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--commit", required=True)
    args = parser.parse_args()
    run_py = args.checkout / "perfbench" / "run.py"
    if not run_py.is_file():
        parser.error(f"{run_py} does not exist")
    workloads = json.loads((args.checkout / "BENCHMARK.json").read_text())["workloads"]
    status = 0
    for workload in (w["name"] for w in workloads):
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", workload, "--seed", "0", "--trace", "0"],
            capture_output=True, text=True,
        )
        try:
            entry = parse_run(proc.stdout, args.commit, args.checkout)
        except ValueError as exc:
            print(f"bench_record: {workload}: {exc}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        append_entry(ROOT / f"BENCH_{workload}.json", entry)
        print(f"{workload}: " + ", ".join(
            f"{name} {m['median']:.6g}" for name, m in entry["metrics"].items()
        ))
    return status


if __name__ == "__main__":
    sys.exit(main())
