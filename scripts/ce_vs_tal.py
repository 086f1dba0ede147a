#!/usr/bin/env python3
"""Paired desk-scale comparison: plain cross-entropy vs the adjusted loss.

For each seed, trains the same synthetic 5-task problem with both losses
in lockstep (same data, same shuffles) and reports final accuracy, per-task mean accuracy, and
the rank correlation between class age and (precision - recall) -- the
temporal-imbalance signature the adjusted loss is supposed to flatten.

Run:
    python scripts/ce_vs_tal.py [--seeds 5] [--lam 0.995] [--r 1.0]
"""

import argparse

import numpy as np

from talcil.cli import _int_from
from talcil.config import ExperimentSpec, LossBlock
from talcil.errors import DomainError, SpecError
from talcil.sim import desk_scale_pair


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_int_from(1), default=5)
    parser.add_argument("--lam", type=float, default=0.995)
    parser.add_argument("--r", type=float, default=1.0)
    args = parser.parse_args()
    try:  # the paired spec's own checks, the TAL cell's calibration too, before any output
        ExperimentSpec(loss=LossBlock(lam=args.lam, r=args.r))
    except (DomainError, SpecError) as exc:
        parser.error(str(exc))

    results = {"ce": [], "tal": []}
    print(f"{'seed':>4}  {'loss':<4} {'a_mean':>7} {'a_last':>7} {'age corr':>9}")
    for seed in range(args.seeds):
        pair = desk_scale_pair(seed, lam=args.lam, r=args.r)
        for kind in ("ce", "tal"):
            cell = pair[kind]
            a_mean, a_last, corr = cell["a_mean"], cell["a_last"], cell["age_corr"]
            results[kind].append((a_mean, a_last, corr))
            print(f"{seed:>4}  {kind:<4} {a_mean:7.4f} {a_last:7.4f} {corr:+9.3f}")

    print("-" * 40)
    for kind in ("ce", "tal"):
        arr = np.array(results[kind])
        print(
            f"{kind:>4} mean: a_mean={arr[:, 0].mean():.4f}+-{arr[:, 0].std():.4f}  "
            f"a_last={arr[:, 1].mean():.4f}+-{arr[:, 1].std():.4f}  "
            f"|age corr|={np.abs(arr[:, 2]).mean():.3f}"
        )
    delta = np.array(results["tal"])[:, 1] - np.array(results["ce"])[:, 1]
    print(f"paired a_last improvement: {delta.mean():+.4f} (wins {np.sum(delta > 0)}/{len(delta)})")


if __name__ == "__main__":
    main()
