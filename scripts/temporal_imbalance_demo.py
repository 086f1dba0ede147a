#!/usr/bin/env python3
"""Show temporal imbalance on a two-task stream.

Builds a single-label stream where class 0's positives all arrive before
class 1's (equal counts), prints the cumulative-positive curves, both
tracker evaluations (direct convolution and the summation-by-parts
identity), and the monotonicity verdict.  Optionally dumps the curves as
CSV for plotting.

Run:
    python scripts/temporal_imbalance_demo.py [--lam 0.99] [--output-dir DIR]
"""

import argparse
from pathlib import Path

from talcil import MemoryKernel, TaskSchedule, generate_stream, verify_theorem1
from talcil.cli import _int_from
from talcil.errors import DomainError
from talcil.output import write_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lam", type=float, default=0.99)
    parser.add_argument("--per-class", type=int, default=100)
    parser.add_argument("--seed", type=_int_from(0), default=0)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args()
    try:
        schedule = TaskSchedule(2, 2, args.per_class, 0)
        kernel = MemoryKernel(lam=args.lam)
    except DomainError as exc:
        parser.error(str(exc))

    trace = generate_stream(schedule, seed=args.seed)
    verdict = verify_theorem1(kernel, (trace.polarities(0), trace.polarities(1)))

    print(f"stream: {len(trace)} steps, 2 classes, lam={args.lam} (q_max={kernel.q_max:.3f})")
    for k, q in ((0, verdict.q_a), (1, verdict.q_b)):
        s = trace.cumulative_positives(k)
        marks = [int(s[n]) for n in range(24, len(trace), 25)]
        print(f"  class {k}: S at steps 25,50,... = {marks}   Q[N] = {q:+.4f}")

    print(
        f"dominance S_0 >= S_1 at every step: {verdict.dominance_held} "
        f"(strict somewhere: {verdict.strict_dominance})"
    )
    print(
        f"tracker order Q_0 <= Q_1: {verdict.conclusion_held} "
        f"(Q_0={verdict.q_a:+.4f}, Q_1={verdict.q_b:+.4f}, "
        f"gap by parts={verdict.gap_by_parts:.6f})"
    )
    print(f"phi path: phi_0={verdict.phi_a:.4f}, phi_1={verdict.phi_b:.4f}")

    if args.output_dir:
        out = Path(args.output_dir)
        write_csv(out / "s_curves.csv", *trace.s_curve_table())
        print(f"wrote {out / 's_curves.csv'}")


if __name__ == "__main__":
    main()
