"""Temporally-adjusted cross-entropy and its analytical gradient.

For a sample (z, y) and a snapshot q of the per-class tracker, each
non-true class k gets its exponential reweighted by alpha * w(q_k),
w(q) = (q/q_max)**r.  Vectorized, this is a per-class additive shift of
the logits:

    zt[i, k] = z[i, k] + log(alpha * max(s_k, eps))   for k != y_i
    zt[i, y_i] = z[i, y_i]
    loss = mean_i [ logsumexp_k zt[i, k] - z[i, y_i] ]

The eps floor sits inside the log on s_k alone (not on alpha * s_k), so
a class with q = 0 contributes exp(z + log(alpha * eps)) -- screened out
of the denominator but still differentiable.  The gradient treats q as a
constant: no sensitivity flows from the loss into the tracker, matching
the update rule's role as a separate online statistic.

At the balanced steady state q_k = x* * q_max the shifts all vanish
(alpha * w = 1) and both loss and gradient coincide with plain
cross-entropy.  That holds by construction: alpha is never an input, a
``TalConfig`` solves it from (C, r) once, when it is built.

Forward passes are pure given a tracker snapshot, so any number may run
concurrently against the same snapshot; ``training_step`` additionally
advances the tracker and so belongs to its single-writer chain.  The
snapshot's range check and w(q) are read through the ``QState``, which
remembers them, so a training step's loss and tracker advance share one
w(q) and the range check of a state a strict update built costs nothing.

Labels are read through a ``Minibatch`` in the same way.  Every step
function takes raw labels or one; raw labels are wrapped on entry, so
both go down one checked path.  The labels' checks (a 1-d integer vector
of N >= 1 labels in [0, C)) and the arrays derived from them (the
true-class index and the batch fractions of the histogram) are done once
per minibatch, however many cells train on it.  Each call still checks
its own logits (a finite N x C matrix), that the minibatch fits them and
the config's class count, and the tracker snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import solve_calibration
from .errors import DomainError
from .kernel import MemoryKernel, Minibatch, QState, check_domain, update_batched

__all__ = ["TalConfig", "LossOutput", "tal_forward", "ce_forward", "training_step"]


def _check_epsilon(epsilon) -> None:
    """The log-weight stabilizer's bound, which a spec's loss block shares."""
    if not 0.0 < epsilon <= 1e-6:
        raise DomainError(f"epsilon must lie in (0, 1e-6], got {epsilon}")


@dataclass(frozen=True)
class TalConfig:
    """One fully calibrated loss instance: kernel, steepness, class count,
    the log-weight stabilizer, and the alignment parameter alpha, which
    construction solves from the balanced-stream calibration of
    (class_count, r)."""

    kernel: MemoryKernel
    r: float
    class_count: int
    epsilon: float = 1e-12
    exploratory: bool = False
    alpha: float = field(init=False)

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        check_domain(self.kernel.lam, self.r, self.exploratory)
        result = solve_calibration(self.class_count, self.r, strict=not self.exploratory)
        object.__setattr__(self, "alpha", result.alpha)

    @classmethod
    def for_classes(
        cls,
        lam: float,
        r: float,
        class_count: int,
        epsilon: float = 1e-12,
        *,
        exploratory: bool = False,
    ) -> "TalConfig":
        """Build a config, and so solve its calibration, from lam."""
        return cls(MemoryKernel(lam=lam), r, class_count, epsilon, exploratory=exploratory)


@dataclass(frozen=True)
class LossOutput:
    """Batch-mean loss and its exact gradient with respect to the logits."""

    loss: float
    grad_logits: np.ndarray


def _check_inputs(logits, labels, class_count=None):
    """The logits as a finite C-order N x C matrix and the labels as a
    ``Minibatch`` that fits them; raw labels are wrapped here."""
    z = np.asarray(logits, dtype=np.float64, order="C")  # flat indexing needs C order
    if z.ndim != 2:
        raise DomainError("logits must be an N x C matrix")
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise DomainError("logits contain non-finite values")
    n, c = z.shape
    if class_count is not None and c != class_count:
        raise DomainError(f"logits have {c} columns, expected {class_count}")
    if not isinstance(labels, Minibatch):
        y = np.asarray(labels)
        if y.shape != (n,):  # before the values: a bad shape is never reported as a range error
            raise DomainError("labels must be a vector with one entry per row of logits")
        labels = Minibatch(y, c)
    if (labels.size, labels.class_count) != (n, c):
        raise DomainError(
            f"minibatch of {labels.size} labels over {labels.class_count} classes "
            f"does not fit {n} x {c} logits"
        )
    return z, labels


def _softmax_loss(z_tilde, z_true, flat_true):
    """Mean of logsumexp(zt) - z_true and the softmax-minus-onehot gradient.

    ``flat_true`` is ``Minibatch.flat_true``; ``z_tilde`` is only read, so it
    may be the caller's logits.  Sum-then-divide is exactly what
    ``np.mean`` does.
    """
    n = z_tilde.shape[0]
    m = np.maximum.reduce(z_tilde, axis=1, keepdims=True)
    grad = z_tilde - m
    np.exp(grad, out=grad)
    denom = np.add.reduce(grad, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(denom[:, 0])
    lse -= z_true
    loss = float(np.add.reduce(lse) / n)
    grad /= denom
    grad.ravel()[flat_true] -= 1.0
    grad /= n
    return loss, grad


def ce_forward(logits, labels) -> LossOutput:
    """Plain mean cross-entropy; the baseline for every comparison."""
    z, batch = _check_inputs(logits, labels)
    flat_true = batch.flat_true
    loss, grad = _softmax_loss(z, z.ravel()[flat_true], flat_true)
    return LossOutput(loss=loss, grad_logits=grad)


def tal_forward(config: TalConfig, logits, labels, q_snapshot: QState) -> LossOutput:
    """Temporally-adjusted loss against a fixed tracker snapshot."""
    z, batch = _check_inputs(logits, labels, config.class_count)
    if q_snapshot.class_count != config.class_count:
        raise DomainError(
            f"tracker has {q_snapshot.class_count} classes, config expects {config.class_count}"
        )
    w = q_snapshot.weight(config.kernel.q_max, config.r, not config.exploratory)
    log_w = np.maximum(w, config.epsilon)
    log_w *= config.alpha
    np.log(log_w, out=log_w)
    flat_true = batch.flat_true
    z_true = z.ravel()[flat_true]
    z_tilde = z + log_w
    z_tilde.ravel()[flat_true] = z_true
    loss, grad = _softmax_loss(z_tilde, z_true, flat_true)
    return LossOutput(loss=loss, grad_logits=grad)


def training_step(
    config: TalConfig, q_state: QState, logits, labels
) -> tuple[LossOutput, QState]:
    """Loss against the pre-update snapshot, then the tracker advance.

    The ordering is part of the contract: the loss never sees the current
    batch's own counts.  The tracker moves by the fractional minibatch
    rule with the batch fractions taken from the label histogram.  Raw
    labels are checked once, after the logits, and wrapped in one
    ``Minibatch`` that both halves of the step read.
    """
    if not isinstance(labels, Minibatch):
        _, labels = _check_inputs(logits, labels, config.class_count)
    out = tal_forward(config, logits, labels, q_state)
    new_state = update_batched(
        q_state, config.kernel, config.r, labels, strict=not config.exploratory
    )
    return out, new_state
