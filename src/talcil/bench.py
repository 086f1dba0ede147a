"""Per-batch loss-computation micro-benchmark, CE vs the adjusted loss.

Times the forward+gradient of each loss over a (batch size x class
count) grid.  Absolute numbers are hardware noise; the interesting
quantity is the overhead t_tal - t_ce, which should stay a small
additive term: the adjusted loss adds one O(C) weight computation and
one broadcast add on top of the same softmax machinery.

A ``QState`` remembers its range check and its weights, so each timed
adjusted-loss call gets a snapshot it has not seen before (built outside
the timed region); timing one snapshot over and over would count that
work once and understate the overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import QState, _count
from .loss import TalConfig, ce_forward, tal_forward

__all__ = ["BenchRow", "run_loss_benchmark", "overhead_slopes"]

DEFAULT_BATCH_SIZES = (32, 64, 128, 256)
DEFAULT_CLASS_COUNTS = (5, 20, 100, 500)


@dataclass(frozen=True)
class BenchRow:
    batch_size: int
    class_count: int
    ce_seconds: float
    tal_seconds: float

    @property
    def overhead_seconds(self) -> float:
        return self.tal_seconds - self.ce_seconds


def _best_time(fn, repeats: int, make_arg=lambda: None) -> float:
    # min over repeats: the standard low-noise estimator for
    # microbenchmarks (anything above the minimum is interference);
    # each call gets a new ``make_arg()``, built before the clock starts
    fn(make_arg())
    fn(make_arg())
    best = float("inf")
    for _ in range(repeats):
        arg = make_arg()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def run_loss_benchmark(
    batch_sizes=DEFAULT_BATCH_SIZES,
    class_counts=DEFAULT_CLASS_COUNTS,
    *,
    repeats: int = 30,
) -> list[BenchRow]:
    _count(repeats, "timed repeats", 1)
    for n in batch_sizes:
        _count(n, "batch size", 1)  # a minibatch needs at least one label
    _require_slope([n * c for n in batch_sizes for c in class_counts])
    rng = np.random.default_rng(0)
    rows = []
    for c in class_counts:
        config = TalConfig.for_classes(0.995, 1.0, c)  # the demo spec's lam and r
        q = rng.uniform(0.0, 0.5 * config.kernel.q_max, size=c)
        for n in batch_sizes:
            logits = rng.standard_normal((n, c))
            labels = rng.integers(0, c, size=n)
            t_ce = _best_time(lambda _: ce_forward(logits, labels), repeats)
            t_tal = _best_time(
                lambda snapshot: tal_forward(config, logits, labels, snapshot),
                repeats,
                lambda: QState(q=q),
            )
            rows.append(
                BenchRow(
                    batch_size=n, class_count=c, ce_seconds=t_ce, tal_seconds=t_tal
                )
            )
    return rows


def _require_slope(element_counts) -> None:
    """A slope against N*C needs at least two distinct element counts."""
    if len(set(element_counts)) < 2:
        raise DomainError(
            "the benchmark grid needs at least two distinct batch size x class count "
            f"products to fit a slope, got {sorted(set(element_counts))}"
        )


def overhead_slopes(rows: list[BenchRow]) -> dict:
    """Least-squares growth of the overhead vs the baseline's own growth.

    Fits t against the element count N*C for both the baseline time and
    the overhead.  A correct vectorized implementation keeps the
    overhead's slope a small fraction of the baseline's; a per-sample
    Python loop would blow it up by orders of magnitude.
    """
    _require_slope([row.batch_size * row.class_count for row in rows])
    nc = np.array([row.batch_size * row.class_count for row in rows], dtype=np.float64)
    t_ce = np.array([row.ce_seconds for row in rows])
    over = np.array([row.overhead_seconds for row in rows])

    def slope(x, y):
        x0 = x - x.mean()
        return float(np.dot(x0, y) / np.dot(x0, x0))

    return {
        "ce_slope_per_element": slope(nc, t_ce),
        "overhead_slope_per_element": slope(nc, over),
        "median_overhead_seconds": float(np.median(over)),
    }
