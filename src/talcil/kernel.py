"""Exponential decay kernel and the per-class temporal supervision tracker Q.

A class's supervision history is a polarity sequence a[n] in {+1, -1}
(+1 when the step's sample belongs to the class, -1 otherwise).  The
tracker convolves that sequence with the decay kernel

    f[n] = lam**(n + 1),   0 < lam < 1,

so the most recent step carries weight lam and influence fades
geometrically.  Under all-positive supervision Q approaches but never
reaches q_max = lam / (1 - lam).

One update rule, in two input forms (the raw recursion and the direct
convolution, which the tests compare against, live in ``tests/oracle.py``):
q' = lam * (q + p - (1 - p) * w(q)) with w(q) = (q / q_max) ** r, where
p is the share of the step's supervision that is positive for the class.
Scaling negative supervision by w(q) keeps q inside [0, q_max) for
r >= 1 and lam >= 1/2 (``check_domain``).

* ``update_tal``      -- one step of +1/-1 polarities: p is 1 or 0.
* ``update_batched``  -- one minibatch of N labels, n_k of class k:
  p_k = n_k/N.  For N = 1 this is ``update_tal`` bit for bit.

Both go through one advance.  It reads w(q), and in the strict form the
range check, through the ``QState`` it is given, which computes each
once (``QState.weight``), and it hands back a state that already knows
it lies in [0, q_max).  ``update_batched`` takes raw labels, wrapped on
entry, or a ``Minibatch``, checked when it (or its ``Minibatch.split``)
was built and here only compared with the tracker's class count.  The
calibrated domain and the tracker's range are still checked per call,
since each cell of a lockstep run has its own kernel, r and state.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from .errors import DomainError, TalcilError

__all__ = [
    "MemoryKernel",
    "QState",
    "Minibatch",
    "check_domain",
    "negative_weight",
    "update_tal",
    "update_batched",
]


@dataclass(frozen=True)
class MemoryKernel:
    """Exponential decay law f[n] = lam**(n+1) with memory parameter lam."""

    lam: float

    def __post_init__(self):
        _check_lam(self.lam)

    @property
    def q_max(self) -> float:
        """Asymptotic supremum of the tracker, lam / (1 - lam).

        Always recomputed from lam so the two can never drift apart.
        """
        return self.lam / (1.0 - self.lam)

    def weights(self, n: int) -> np.ndarray:
        """First n kernel values f[0..n-1] = lam**1 .. lam**n."""
        return self.lam ** (np.arange(1, n + 1, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class QState:
    """Per-class temporal positive-supervision strengths.

    ``q[k]`` lives in [0, q_max) for every class once driven by the
    attenuated updates.  Updates return a fresh QState; a state in hand
    is a stable snapshot (single-writer contract: one updater advances
    the chain, readers keep old snapshots).  The snapshot is enforced:
    construction copies ``q`` into a read-only float64 array of the
    state's own, so neither the caller's array nor a write to ``state.q``
    can change it.

    Because q cannot change, a state remembers work done on it: the
    ``q_max`` whose range check last passed (a strict update records it
    when it builds the state, having just checked and clamped the range)
    and w(q) for the last ``(q_max, r)`` that ``weight`` was asked for.
    A failed check is never remembered, so a NaN entry fails every call.
    A state compares and hashes by identity, like ``Minibatch``.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64)
        if q.ndim != 1:
            raise DomainError("q must be a 1-d vector of per-class strengths")
        q.flags.writeable = False
        vars(self).update(q=q, _known_within=None, _w_memo=None)

    @classmethod
    def _owned(cls, q: np.ndarray, within: float | None = None) -> "QState":
        """Wrap a fresh 1-d float64 array no one else holds, without a copy
        or checks; ``within`` is a q_max the caller has already verified."""
        q.flags.writeable = False
        state = object.__new__(cls)
        vars(state).update(q=q, _known_within=within, _w_memo=None)
        return state

    @classmethod
    def zeros(cls, class_count: int) -> "QState":
        """Fresh tracker: every class starts at zero strength."""
        if class_count < 1:
            raise DomainError("need at least one class")
        return cls._owned(np.zeros(class_count))

    @property
    def class_count(self) -> int:
        return self.q.shape[0]

    def weight(self, q_max: float, r: float, checked: bool = False) -> np.ndarray:
        """Read-only w(q) = ``negative_weight(q, q_max, r)``, computed once
        per ``(q_max, r)`` in a row, so the loss and the tracker advance of
        one training step share it.  ``checked`` first raises ``DomainError``
        unless every entry lies in [0, q_max); NaN entries never do."""
        if checked and q_max != self._known_within:
            q = self.q
            if not np.logical_and.reduce((q >= 0.0) & (q < q_max)):
                raise DomainError("tracker state outside [0, q_max)")
            object.__setattr__(self, "_known_within", q_max)
        memo = self._w_memo
        if memo is not None and memo[0] == q_max and memo[1] == r:
            return memo[2]
        w = negative_weight(self.q, q_max, r)
        w.flags.writeable = False
        object.__setattr__(self, "_w_memo", (q_max, r, w))
        return w

    def append_classes(self, n_new: int) -> "QState":
        """Grow the tracker when a task introduces classes; new entries start at 0."""
        if n_new < 0:
            raise DomainError("cannot append a negative number of classes")
        return QState._owned(np.concatenate([self.q, np.zeros(n_new)]))


@dataclass(frozen=True, eq=False, init=False)
class Minibatch:
    """The labels of one minibatch, checked once against a class count.

    Every cell that trains on the same minibatch (the lockstep ablation
    runs 21) can share one.  Like ``QState`` it is a snapshot:
    construction copies ``labels`` into a read-only int64 array of its
    own and checks them once -- a label vector (``_label_vector``), each
    label in ``[0, class_count)``.  A label out of range raises
    ``IndexError``, everything else ``DomainError``.  ``split``
    cuts a label vector, or several joined end to end, into minibatches
    under one such check.

    Because the labels cannot change, the arrays derived from them are
    computed once and kept, read-only: ``flat_true`` when the batch is
    built, since every forward pass reads it, and ``fractions`` the
    first time a tracker update reads it (a split's pieces get both).
    """

    labels: np.ndarray
    class_count: int
    size: int  #: N, the number of labels
    #: flat C-order index of each row's true-class entry of an N x C matrix
    flat_true: np.ndarray

    def __init__(self, labels, class_count: int):
        y = _label_vector(labels)
        c = operator.index(class_count)
        if np.maximum.reduce(y.view(np.uint64)) >= c:  # a negative label wraps past any c
            raise IndexError(f"labels must lie in [0, {c})")
        n = y.shape[0]
        flat_true = np.arange(0, n * c, c) + y
        y.flags.writeable = flat_true.flags.writeable = False
        vars(self).update(labels=y, class_count=c, size=n, flat_true=flat_true)

    @classmethod
    def split(cls, labels, class_count: int, batch_size: int, runs: int = 1) -> list["Minibatch"]:
        """The consecutive minibatches of ``batch_size`` labels (the last
        may be shorter), each bit for bit ``Minibatch(piece, class_count)``.
        ``labels`` may join ``runs`` label vectors of one length end to end
        (one per seed of a lockstep run); each is cut on its own and the
        pieces come run by run.  The labels are checked once, a piece's
        arrays are read-only views of the split's own, and one histogram
        gives every piece its fractions."""
        whole = cls(labels, class_count)
        y, c = whole.labels, whole.class_count
        pieces, piece_of, at, sizes = _split_layout(whole.size, batch_size, runs)
        flat_true = at * c + y  # row offsets restart in each piece
        p = np.bincount(piece_of * c + y, minlength=sizes.size * c).reshape(-1, c) / sizes
        q = 1.0 - p
        flat_true.flags.writeable = p.flags.writeable = q.flags.writeable = False
        batches = []
        for (lo, hi), frac_pos, frac_neg in zip(pieces, p, q):
            batch = object.__new__(cls)
            vars(batch).update(labels=y[lo:hi], class_count=c, size=hi - lo,
                               flat_true=flat_true[lo:hi], fractions=(frac_pos, frac_neg))
            batches.append(batch)
        return batches

    @cached_property
    def fractions(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, 1 - p), the batch fractions p = counts / N of the class
        histogram; the int64 counts are exact as float64, so p is
        float64(counts) / N."""
        p = np.bincount(self.labels, minlength=self.class_count) / self.size
        q = 1.0 - p
        p.flags.writeable = q.flags.writeable = False
        return p, q


def _is_integer(n) -> bool:
    """An int or a numpy integer; a bool is no count or index.  The one
    integer rule, read by ``streams`` and ``metrics``."""
    return isinstance(n, Integral) and not isinstance(n, bool)


def _label_vector(labels) -> np.ndarray:
    """``labels`` as a fresh int64 array, checked: a 1-d vector of at least
    one label, of an integer or bool dtype (a float or string label is
    refused, never truncated).  Anything else is a ``DomainError``; the
    range check is the caller's.  ``Minibatch``, ``SupervisionTrace`` and
    ``metrics.confusion_matrix`` read labels through this one check."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DomainError("labels must be a 1-d vector")
    if not y.size:
        raise DomainError("a minibatch needs at least one label")
    if y.dtype.kind not in "biu":
        raise DomainError(f"labels must be integers, got dtype {y.dtype}")
    return np.array(y, dtype=np.int64)  # uint64 plus int64 row offsets would be float


@lru_cache(maxsize=64)
def _split_layout(n: int, batch_size: int, runs: int):
    """How ``Minibatch.split`` cuts ``n`` labels, which depends on the
    counts alone: each piece's ``(start, stop)``, each label's piece and
    its row within the piece, and each piece's size as a column.  Every
    epoch of a training task cuts the same counts, so the layout is built
    once and shared; what it returns is immutable."""
    b, runs = operator.index(batch_size), operator.index(runs)
    if b < 1:
        raise DomainError(f"batch size must be at least 1, got {b}")
    if runs < 1 or n % runs:
        raise DomainError(f"{n} labels do not make {runs} runs of one length")
    width = n // runs
    pieces = tuple(
        (run + lo, run + min(lo + b, width))
        for run in range(0, n, width)
        for lo in range(0, width, b)
    )
    at = np.arange(n) % width  # position within the run
    piece_of = np.arange(n) // width * -(-width // b) + at // b
    at %= b
    sizes = np.array([hi - lo for lo, hi in pieces], dtype=np.int64)[:, None]
    for array in (piece_of, at, sizes):
        array.flags.writeable = False
    return pieces, piece_of, at, sizes


def _check_lam(lam) -> None:
    """The domain rule's clause on lam alone, which every kernel obeys."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"memory parameter lam must lie in (0, 1), got {lam}")


def check_domain(lam, r, exploratory: bool) -> None:
    """The calibrated-domain rule; every entry point calls this one copy.

    r must be finite and positive and lam, when given, must lie in (0, 1).
    Unless ``exploratory``, also r >= 1 and lam >= 1/2: there the
    attenuated update provably keeps q in [0, q_max) and the loss
    collapses to cross-entropy at balance.  ``lam`` is ``None`` for the
    calibration, which has no kernel.  Every comparison fails on NaN.
    Plain float comparisons only: the minibatch update calls this on
    every step.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"steepness r must be finite and positive, got {r}")
    if lam is not None:
        _check_lam(lam)
    if exploratory:
        return
    if not r >= 1.0:
        raise DomainError(
            f"steepness r={r} < 1 is outside the calibrated domain and needs "
            "exploratory mode (range invariants demote to warnings)"
        )
    if lam is not None and not lam >= 0.5:
        raise DomainError(
            f"lam={lam} < 0.5 gives q_max < 1 and breaks the nonnegativity of the "
            "attenuated update; it needs exploratory mode"
        )


def negative_weight(q, q_max: float, r: float):
    """Sensitivity to negative supervision, w(q) = (q / q_max) ** r.

    Shared by the loss, the attenuated updates and the calibration
    degeneracy probe, so all three see the same arithmetic. Accepts
    scalars or arrays.
    """
    return (np.asarray(q, dtype=np.float64) / q_max) ** r


def _polarity_floats(polarities) -> np.ndarray:
    """``polarities`` as float64, refused unless of an integer or float
    dtype: a string is not parsed, and a bool is not read as +1."""
    a = np.asarray(polarities)
    if a.dtype.kind not in "iuf":
        raise DomainError(f"polarities must be integers or floats, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _check_polarities(polarities, class_count: int) -> np.ndarray:
    a = _polarity_floats(polarities)
    if a.shape != (class_count,):
        raise DomainError(
            f"polarity vector has length {a.shape}, expected ({class_count},)"
        )
    if not np.logical_and.reduce(np.abs(a) == 1.0):
        raise DomainError("polarities must be exactly +1 or -1")
    return a


def _convolve(f: np.ndarray, a: np.ndarray) -> float:
    """sum_n f[N-1-n] * a[n] for equal-length arrays, unchecked."""
    return float(np.dot(f, a[::-1]))


_EPS = float(np.finfo(np.float64).eps)


def _settle_range(q: np.ndarray, q_max: float, strict: bool) -> np.ndarray:
    """Check and clamp a freshly computed tracker in place; returns it."""
    if strict:
        # In exact arithmetic the update maps [0, q_max) into itself.  The
        # rounded result can land exactly on either boundary (e.g. lam=0.5
        # after ~53 consecutive positives puts the true value within half an
        # ulp of q_max), so exact-boundary roundings are snapped one ulp back
        # inside.  Anything beyond rounding distance is a library bug, raised
        # explicitly so the check survives ``python -O``.
        if not q.size:
            return q
        tol = 4.0 * _EPS * q_max
        low, high = np.minimum.reduce(q), np.maximum.reduce(q)  # NaN propagates
        if not (low >= -tol and high <= q_max + tol):
            raise TalcilError(
                f"tracker left [0, q_max={q_max!r}) by more than rounding "
                f"(min {low!r}, max {high!r})"
            )
        if not (low > 0.0 and high < q_max):  # otherwise the clamp is the identity
            np.maximum(q, 0.0, out=q)
            np.minimum(q, math.nextafter(q_max, 0.0), out=q)
        return q
    if np.logical_or.reduce(q < 0.0):
        warnings.warn(
            "attenuated update left [0, q_max); clamping at 0 (exploratory r < 1 path)",
            RuntimeWarning,
            stacklevel=4,
        )
        np.maximum(q, 0.0, out=q)
    return q


def _advance(state: QState, kernel: MemoryKernel, r: float, gain, loss, strict: bool) -> QState:
    """The tracker rule, q' = lam * (q + gain - loss * w(q)), with its range
    settled; a strict advance first checks the state's range."""
    q_max = kernel.q_max
    w = state.weight(q_max, r, strict)
    q_next = _settle_range(kernel.lam * (state.q + gain - loss * w), q_max, strict)
    return QState._owned(q_next, q_max if strict else None)


def update_tal(
    state: QState,
    kernel: MemoryKernel,
    r: float,
    polarities,
    *,
    strict: bool = True,
) -> QState:
    """One attenuated step: q' = lam*(q+1) on +1, q' = lam*(q - w(q)) on -1."""
    check_domain(kernel.lam, r, not strict)
    positive = _check_polarities(polarities, state.class_count) > 0
    return _advance(state, kernel, r, positive, ~positive, strict)


def update_batched(
    state: QState,
    kernel: MemoryKernel,
    r: float,
    labels,
    *,
    strict: bool = True,
) -> QState:
    """Minibatch tracker advance from the batch's labels.

    With p_k the fraction of the batch's labels that are class k:

        q'_k = lam * (q_k + p_k - (1 - p_k) * w(q_k))

    One call per minibatch; a single label reproduces ``update_tal`` bit
    for bit.  ``labels`` is raw labels, wrapped here in a ``Minibatch``
    over the tracker's classes, or a ``Minibatch`` already checked, which
    is only compared with the tracker's class count.
    """
    check_domain(kernel.lam, r, not strict)
    if not isinstance(labels, Minibatch):
        labels = Minibatch(labels, state.class_count)
    elif labels.class_count != state.class_count:
        raise DomainError(
            f"minibatch over {labels.class_count} classes does not fit a tracker of "
            f"{state.class_count} classes"
        )
    return _advance(state, kernel, r, *labels.fractions, strict)
