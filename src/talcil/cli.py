"""Single entry point exposing the library over subcommands.

Exit codes (also summarized in --help):

    0  success
    1  unexpected internal error
    2  usage error (bad flags / unknown subcommand)
    3  malformed or invalid experiment spec
    4  argument outside an operation's mathematical domain
    5  solver or training failure

On any failure a one-line JSON error record goes to stderr.  All tabular
outputs are CSV written atomically; repeated runs with the same spec and
seeds are byte-identical (the loss micro-benchmark necessarily excepted:
it reports wall-clock times).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_CLASS_COUNTS,
    overhead_slopes,
    run_loss_benchmark,
)
from .calibration import solve_calibration
from .config import load_spec
from .errors import DomainError, SolverError, SpecError, TrainingError
from .kernel import MemoryKernel, QState, update_tal
from .metrics import TABLE_HEADERS, forgetting_curve, seed_summary
from .output import atomic_write_text, write_csv, write_jsonl, write_manifest
from .sim import ABLATION_LAMBDAS, ABLATION_RS, ablate, train_incremental
from .streams import TaskSchedule, _index_dtype, generate_stream, sample_dominance_pair, verify_theorem1

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_SPEC = 3
EXIT_DOMAIN = 4
EXIT_SOLVER = 5

ENV_OUTPUT_DIR = "TALCIL_OUTPUT_DIR"


def _usable_output(path, *, directory: bool) -> Path:
    """``path`` if a command can write its output there: an existing path
    is a directory exactly when ``directory`` is set, and the nearest
    existing ancestor is a directory.  A ``DomainError`` (exit 4)
    otherwise; each command calls this before any work."""
    path = Path(path)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if nearest == path and path.is_dir() != directory:
        wanted = "output directory" if directory else "output file"
        found = "an existing file" if directory else "a directory"
        raise DomainError(f"{wanted} {path} is {found}")
    if nearest != path and not nearest.is_dir():
        raise DomainError(f"cannot write under {path}: {nearest} is not a directory")
    return path


def _resolve_output_dir(flag_value, spec_value=None) -> Path:
    """The first output directory set, checked with ``_usable_output``."""
    for candidate in (flag_value, spec_value, os.environ.get(ENV_OUTPUT_DIR), "runs"):
        if candidate:
            return _usable_output(candidate, directory=True)


#: a nonnegative integer as ``train`` writes one: decimal digits, no sign,
#: space, underscore or leading zero
_DECIMAL = re.compile("0|[1-9][0-9]*")


def _integer(text: str) -> int:
    """An argparse type, the one spelling of every integer option: ``-`` or
    not, then ``_DECIMAL``.  Range checks beyond ``_int_from`` are the library's."""
    if not _DECIMAL.fullmatch(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _int_from(low: int):
    """An argparse type: an ``_integer`` no smaller than ``low``."""
    def parse(text: str) -> int:
        if (value := _integer(text)) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return parse


def _list_of(parse):
    """An argparse type: a nonempty comma-separated list of ``parse`` values."""
    def comma_list(text: str) -> list:
        if values := [parse(tok) for tok in text.split(",") if tok.strip()]:
            return values
        raise argparse.ArgumentTypeError("expected at least one comma-separated value")
    return comma_list


_int_list, _float_list = _list_of(_integer), _list_of(float)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_calibrate(args) -> int:
    result = solve_calibration(args.classes, args.exponent)
    print(f"classes={result.class_count} exponent={result.r!r}")
    print(f"x_star={result.x_star!r}")
    print(f"alpha={result.alpha!r}")
    print(f"residual={result.residual!r}")
    return EXIT_OK


def _cmd_simulate_stream(args) -> int:
    out_dir = _resolve_output_dir(args.output_dir)
    schedule = TaskSchedule(args.classes, args.tasks, args.per_class, args.replay)
    trace = generate_stream(schedule, args.seed)
    steps, c, index_dtype = len(trace), trace.class_count, _index_dtype(trace)
    kernel = MemoryKernel(lam=args.lam)
    state = QState.zeros(c)
    classes = np.arange(c, dtype=index_dtype)
    polarity = np.where(classes[:, None] == classes, 1.0, -1.0)  # row k: a step labelled k
    q = np.empty((steps, c))
    for n, label in enumerate(trace.labels):
        state = update_tal(state, kernel, args.exponent, polarity[label])
        q[n] = state.q
    step_ids = np.arange(steps, dtype=index_dtype)
    write_csv(out_dir / "trace.csv", ("step", "label"), (step_ids, trace.labels))
    write_csv(out_dir / "s_curves.csv", *trace.s_curve_table())
    write_csv(
        out_dir / "q_trajectory.csv",
        ("step", "class_id", "q_value"),
        (np.repeat(step_ids, c), np.tile(classes, steps), q.ravel()),
    )
    spec_dict = {
        "command": "simulate-stream",
        "classes": args.classes,
        "tasks": args.tasks,
        "per_class": args.per_class,
        "replay": args.replay,
        "lambda": args.lam,
        "r": args.exponent,
    }
    write_manifest(out_dir, spec_dict, [args.seed])
    print(f"wrote trace ({len(trace)} steps), S curves and Q trajectory to {out_dir}")
    return EXIT_OK


def _cmd_verify_theorem1(args) -> int:
    out_dir = _resolve_output_dir(args.output_dir)
    rng = np.random.default_rng(args.seed)
    pair_ids, lams, verdicts = [], [], []
    for lam in args.lambdas:
        kernel = MemoryKernel(lam=lam)
        for i in range(args.pairs):
            seq_a, seq_b = sample_dominance_pair(rng, args.length, args.positives)
            pair_ids.append(i)
            lams.append(lam)
            verdicts.append(verify_theorem1(kernel, (seq_a, seq_b)))
    total = len(verdicts)
    held = sum(v.conclusion_held for v in verdicts)
    strict_held = sum(v.strict_dominance and v.gap_by_parts > 0.0 for v in verdicts)
    fields = (
        "q_a", "q_b", "phi_a", "phi_b", "dominance_held", "strict_dominance", "conclusion_held"
    )
    write_csv(
        out_dir / "theorem1_pairs.csv",
        ("pair_id", "lambda", "length", "positives", *fields),
        (
            pair_ids,
            lams,
            [args.length] * total,
            [args.positives] * total,
            *([getattr(v, name) for v in verdicts] for name in fields),
        ),
    )
    write_manifest(
        out_dir,
        {
            "command": "verify-theorem1",
            "pairs": args.pairs,
            "length": args.length,
            "positives": args.positives,
            "lambdas": list(args.lambdas),
        },
        [args.seed],
    )
    print(f"conclusion held in {held}/{total} pairs (strict in {strict_held})")
    return EXIT_OK if held == total else EXIT_SOLVER


def _cmd_train(args) -> int:
    spec = load_spec(args.spec)
    out_dir = _resolve_output_dir(args.output_dir, spec.output_dir)
    reports = train_incremental(spec)
    rows = [{"seed": r.seed, "a_mean": r.a_mean, "a_last": r.a_last} for r in reports]
    [summary] = seed_summary(rows)
    for report in reports:
        for name, (header, columns) in report.tables().items():
            write_csv(out_dir / name, header, columns)
        write_jsonl(out_dir / f"events_seed{report.seed}.jsonl", report.events)
    write_csv(
        out_dir / "summary.csv",
        ("seed", "a_mean", "a_last"),
        (
            [*spec.seeds, "mean", "std"],
            [*(row["a_mean"] for row in rows), summary["a_mean_mean"], summary["a_mean_std"]],
            [*(row["a_last"] for row in rows), summary["a_last_mean"], summary["a_last_std"]],
        ),
    )
    write_manifest(out_dir, spec.resolved_dict(), spec.seeds)
    print(
        f"{spec.loss.kind} over {len(spec.seeds)} seeds: "
        f"a_mean={summary['a_mean_mean']:.4f}+-{summary['a_mean_std']:.4f} "
        f"a_last={summary['a_last_mean']:.4f}+-{summary['a_last_std']:.4f} -> {out_dir}"
    )
    return EXIT_OK


def _cmd_ablate(args) -> int:
    spec = load_spec(args.spec)
    out_dir = _resolve_output_dir(args.output_dir, spec.output_dir)
    rows = ablate(spec, lambdas=args.lambdas, rs=args.rs)
    write_csv(
        out_dir / "ablation.csv",
        ("loss", "lambda", "r", "seed", "a_mean", "a_last"),
        [
            [row[key] for row in rows]
            for key in ("loss", "lam", "r", "seed", "a_mean", "a_last")
        ],
    )
    summary = seed_summary(rows, by=("loss", "lam", "r"))
    stats = ("a_mean_mean", "a_mean_std", "a_last_mean", "a_last_std")
    write_csv(
        out_dir / "ablation_summary.csv",
        ("loss", "lambda", "r", *stats),
        [[cell[key] for cell in summary] for key in ("loss", "lam", "r", *stats)],
    )
    write_manifest(out_dir, spec.resolved_dict(), spec.seeds)
    print(f"ablation grid {len(args.lambdas)}x{len(args.rs)} (+CE) over {len(spec.seeds)} seeds -> {out_dir}")
    return EXIT_OK


def _cmd_bench_loss(args) -> int:
    out_dir = _resolve_output_dir(args.output_dir)
    rows = run_loss_benchmark(args.batch_sizes, args.class_counts, repeats=args.repeats)
    fields = ("batch_size", "class_count", "ce_seconds", "tal_seconds", "overhead_seconds")
    write_csv(out_dir / "bench.csv", fields, [[getattr(r, name) for r in rows] for name in fields])
    write_manifest(
        out_dir,
        {
            "command": "bench-loss",
            "batch_sizes": list(args.batch_sizes),
            "class_counts": list(args.class_counts),
            "repeats": args.repeats,
        },
        [0],
    )
    slopes = overhead_slopes(rows)
    print(
        "overhead slope {overhead_slope_per_element:.3e} s/elem vs baseline slope "
        "{ce_slope_per_element:.3e} s/elem; median overhead "
        "{median_overhead_seconds:.3e} s".format(**slopes)
    )
    print(f"wrote bench.csv -> {out_dir}")
    return EXIT_OK


_FLOAT_COLUMNS = frozenset({"accuracy", "precision", "recall", "q_value"})


def _check_cell(column: str, cell: str) -> None:
    """A cell as ``train`` writes it: a float, or a nonnegative integer
    (``_DECIMAL``) in a count or id column; an undefined precision is an
    empty cell."""
    if column not in _FLOAT_COLUMNS:
        if not _DECIMAL.fullmatch(cell):
            raise ValueError(f"{column} {cell!r} is not a nonnegative integer")
    elif cell or column != "precision":
        float(cell)


def _read_table(path: Path, table: str) -> list[list[str]]:
    """The rows of one run table, checked against what ``train`` writes: the
    table's header, at least one row, and a parseable cell per column.
    Anything else, an unreadable or undecodable file included, is a
    malformed run directory (``SpecError``)."""
    try:
        header, *lines = path.read_text(encoding="utf-8").strip().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: {exc}") from exc
    columns = TABLE_HEADERS[table]
    if header.split(",") != list(columns):
        raise SpecError(f"{path}: header is not {','.join(columns)}")
    if not lines:
        raise SpecError(f"{path}: no rows")
    rows = [line.split(",") for line in lines]
    for number, row in enumerate(rows, start=2):
        try:
            if len(row) != len(columns):
                raise ValueError(f"{len(row)} cells, expected {len(columns)}")
            for column, cell in zip(columns, row):
                _check_cell(column, cell)
        except ValueError as exc:
            raise SpecError(f"{path}, line {number}: {exc}") from exc
    return rows


def _seed_files(run_dir: Path, prefix: str):
    """(seed, path) of each ``<prefix>_seed<N>.csv`` under the run, by seed.

    N is a seed as ``train`` writes it (``_DECIMAL``); any other name,
    such as ``per_class_seed0_old.csv``, is skipped.
    """
    name = re.compile(rf"{re.escape(prefix)}_seed({_DECIMAL.pattern})\.csv")
    matches = (name.fullmatch(p.name) for p in run_dir.iterdir())
    found = sorted((int(m[1]), run_dir / m[0]) for m in matches if m)
    if not found:
        raise SpecError(f"no {prefix}_seed*.csv files under {run_dir}")
    return found


def _accuracy_matrix(path: Path, rows: list[list[str]]) -> np.ndarray:
    """The T x T matrix of an accuracy table whose rows are each pair
    (after_task, on_task) with on_task <= after_task < T exactly once, as
    ``train`` writes them.  Any other table is a malformed run
    (``SpecError``), found before the matrix is allocated."""
    pairs = [(int(after), int(on)) for after, on, _ in rows]
    n_tasks = (math.isqrt(8 * len(pairs) + 1) - 1) // 2
    if n_tasks * (n_tasks + 1) // 2 != len(pairs):
        raise SpecError(f"{path}: {len(pairs)} rows fill no task count's lower triangle")
    for after, on in pairs:
        if not on <= after < n_tasks:
            raise SpecError(f"{path}: task {on} evaluated after task {after} of {n_tasks}")
    if len(set(pairs)) != len(pairs):
        raise SpecError(f"{path}: a task evaluated twice after the same task")
    matrix = np.full((n_tasks, n_tasks), np.nan)
    for (after, on), (_, _, acc) in zip(pairs, rows):
        matrix[after, on] = float(acc)
    return matrix


def _cmd_plotdata(args) -> int:
    if args.output:
        _usable_output(args.output, directory=False)
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise SpecError(f"run directory not found: {run_dir}")
    out_rows: list[tuple] = []
    if args.what in ("accuracy", "forgetting"):
        for seed, path in _seed_files(run_dir, "accuracy_matrix"):
            rows = _read_table(path, "accuracy_matrix")
            matrix = _accuracy_matrix(path, rows)
            if args.what == "accuracy":
                out_rows.extend(
                    (seed, int(r[0]), int(r[1]), float(r[2])) for r in rows
                )
            else:
                for task, curve in enumerate(forgetting_curve(matrix)):
                    out_rows.extend(
                        (seed, task, task + i, float(v)) for i, v in enumerate(curve)
                    )
        header = (
            ("seed", "after_task", "on_task", "accuracy")
            if args.what == "accuracy"
            else ("seed", "task", "after_task", "accuracy")
        )
    else:  # the per-seed tables, each row prefixed with its seed
        table = "per_class" if args.what == "per-class" else "q_snapshots"
        header = ("seed", *TABLE_HEADERS[table])
        for seed, path in _seed_files(run_dir, table):
            out_rows.extend((seed, *r) for r in _read_table(path, table))
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in out_rows)
    text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {len(out_rows)} rows -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talcil",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"talcil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="solve the steady-state calibration for (C, r)")
    p.add_argument("--classes", type=_integer, required=True)
    p.add_argument("--exponent", type=float, required=True)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("simulate-stream", help="generate a task stream, S curves and Q trajectory")
    p.add_argument("--classes", type=_integer, default=4)
    p.add_argument("--tasks", type=_integer, default=2)
    p.add_argument("--per-class", type=_integer, default=50)
    p.add_argument("--replay", type=_integer, default=0)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--lam", type=float, default=0.995, help="memory parameter")
    p.add_argument("--exponent", type=float, default=1.0, help="attenuation steepness r")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(handler=_cmd_simulate_stream)

    p = sub.add_parser("verify-theorem1", help="randomized monotonicity check on dominance pairs")
    p.add_argument("--pairs", type=_int_from(1), default=500)
    p.add_argument("--length", type=_integer, default=600)
    p.add_argument("--positives", type=_integer, default=120)
    p.add_argument("--lambdas", type=_float_list, default=[0.9, 0.99])
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(handler=_cmd_verify_theorem1)

    p = sub.add_parser("train", help="run the incremental experiment a spec file describes")
    p.add_argument("--spec", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("ablate", help="grid over (lambda, r) plus a CE baseline row")
    p.add_argument("--spec", required=True)
    p.add_argument("--lambdas", type=_float_list, default=ABLATION_LAMBDAS)
    p.add_argument("--rs", type=_float_list, default=ABLATION_RS)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("bench-loss", help="per-batch loss timing, CE vs adjusted")
    p.add_argument("--batch-sizes", type=_int_list, default=DEFAULT_BATCH_SIZES)
    p.add_argument("--class-counts", type=_int_list, default=DEFAULT_CLASS_COUNTS)
    p.add_argument("--repeats", type=_int_from(1), default=30)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(handler=_cmd_bench_loss)

    p = sub.add_parser("plotdata", help="reshape a run directory into long-format tables")
    p.add_argument("--run", required=True)
    p.add_argument("--what", choices=("accuracy", "forgetting", "per-class", "q"), required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_plotdata)

    return parser


def _error_record(exc: Exception, code: int) -> str:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, TrainingError) and exc.step is not None:
        record["step"] = exc.step
    if isinstance(exc, SolverError) and exc.residual is not None:
        record["residual"] = exc.residual
    return json.dumps(record, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as exc:
        print(_error_record(exc, EXIT_SPEC), file=sys.stderr)
        return EXIT_SPEC
    except DomainError as exc:
        print(_error_record(exc, EXIT_DOMAIN), file=sys.stderr)
        return EXIT_DOMAIN
    except (SolverError, TrainingError) as exc:
        print(_error_record(exc, EXIT_SOLVER), file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # a library bug (a bare TalcilError) or anything unforeseen
        print(_error_record(exc, EXIT_INTERNAL), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
