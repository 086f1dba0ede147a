"""Reference paths that the tests compare the library against.

None of this runs in training, so none of it is in the ``talcil`` package:

* ``convolve_q`` -- the tracker value by direct convolution of a
  polarity sequence with decay kernel values, such as
  ``MemoryKernel.weights(N)``, O(N) per value.
* ``update_plain`` -- the raw one-step recursion q' = lam * (q + a).
  Exactly equivalent to the convolution but can go negative on
  negative-heavy streams.
* ``degeneracy_check`` -- alpha * w(x* * q_max) through the loss's own
  weight function, which must come back as 1.
* ``phi_from_counts`` -- the summation-by-parts functional of one
  cumulative positive curve, which ``verify_theorem1`` ties to Q.
* ``confusion_counts`` -- a confusion matrix counted one sample at a
  time with ``np.add.at``.
"""

from __future__ import annotations

import numpy as np

from talcil.calibration import solve_calibration
from talcil.errors import DomainError
from talcil.kernel import MemoryKernel, QState, _convolve, _polarity_floats, negative_weight
from talcil.streams import _deltas, _phi

__all__ = [
    "convolve_q",
    "update_plain",
    "degeneracy_check",
    "phi_from_counts",
    "confusion_counts",
]


def convolve_q(kernel_values: np.ndarray, polarities: np.ndarray) -> float:
    """Brute-force tracker value for an arbitrary decreasing kernel.

    Computes sum_n f[N-1-n] * a[n], i.e. the newest step gets f[0].  This
    is the O(N) oracle that every recursion must reproduce; it accepts
    any kernel value array so monotonicity arguments can be probed with
    non-exponential decays too.
    """
    f = np.asarray(kernel_values, dtype=np.float64)
    a = np.asarray(polarities, dtype=np.float64)
    if a.size == 0:
        raise DomainError("cannot evaluate the tracker on an empty sequence")
    if f.shape[0] < a.shape[0]:
        raise DomainError("kernel shorter than the polarity sequence")
    return _convolve(f[: a.size], a)


def update_plain(state: QState, kernel: MemoryKernel, polarities) -> QState:
    """One step of the raw recursion q' = lam * (q + a).

    Matches the convolution exactly but has no lower bound; negative
    values are reported as-is.  Training goes through ``update_tal`` /
    ``update_batched``.
    """
    a = _polarity_floats(polarities)
    if a.shape != (state.class_count,):
        raise DomainError(f"polarity vector has length {a.shape}, expected ({state.class_count},)")
    return QState(q=kernel.lam * (state.q + a))


def degeneracy_check(class_count: int, r: float) -> float:
    """Cross-module probe: alpha * w(x* * q_max) evaluated through the
    same weight function the loss uses.  Must come back as 1 (within
    1e-12); anything else means the solver and the loss disagree about
    what "balanced" means.
    """
    result = solve_calibration(class_count, r)
    kernel = MemoryKernel(lam=0.9)  # any lam: q_max cancels inside w
    q_star = result.x_star * kernel.q_max
    return float(result.alpha * negative_weight(q_star, kernel.q_max, r))


def phi_from_counts(kernel_values: np.ndarray, cum_positives: np.ndarray) -> float:
    """Summation-by-parts functional of the cumulative positive curve.

    Phi = f[0] * S[N-1] - sum_{n=0}^{N-2} (f[N-2-n] - f[N-1-n]) * S[n].
    Larger Phi means later (back-loaded) positives under a decreasing
    kernel -- see ``verify_theorem1`` for the identity tying it to Q.
    """
    f = np.asarray(kernel_values, dtype=np.float64)
    s = np.asarray(cum_positives, dtype=np.float64)
    n = s.shape[0]
    if n == 0:
        raise DomainError("empty cumulative curve")
    return _phi(f, _deltas(f, n), s)


def confusion_counts(predictions, labels, class_count: int) -> np.ndarray:
    """counts[i, j] = samples of true class i predicted as j, one unbuffered
    increment per sample; no range or dtype check."""
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (np.asarray(labels), np.asarray(predictions)), 1)
    return counts
