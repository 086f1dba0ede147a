"""Supervision stream generation and the temporal-imbalance check.

A stream is a step-per-sample label sequence (single-label: exactly one
class is positive at each step, every other class sees -1).  Streams are
generated from a task schedule, the four numbers of ``TaskSchedule``:
classes 0..C-1 arrive in equal-width tasks in id order, and each task
contributes its new classes' samples plus a fixed number of replay
exemplars per old class, shuffled within the task -- so earlier classes'
positives are front-loaded by construction.

``verify_theorem1`` checks the core monotonicity fact on a pair of
polarity sequences (from a trace, ``trace.polarities(k)``): for two
classes with the same total number of positives, if class A's cumulative
positive count dominates class B's at every step (front-loaded vs
back-loaded), then A's tracker value at the end is <= B's, strictly so
when the dominance is strict somewhere and the kernel strictly
decreases.  The check evaluates Q twice: by direct convolution, and
through the summation-by-parts form

    Phi_k = f[0] * S_k[N-1] - sum_n (f[N-2-n] - f[N-1-n]) * S_k[n]
    Q_k   = 2 * Phi_k - sum_m f[m]

whose second term is class-independent, so the Q order and the Phi order
must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, TalcilError
from .kernel import MemoryKernel, _convolve, _count, _label_vector, _polarity_floats

__all__ = [
    "TaskSchedule",
    "SupervisionTrace",
    "TheoremVerdict",
    "generate_stream",
    "verify_theorem1",
    "sample_dominance_pair",
]


@dataclass(frozen=True)
class TaskSchedule:
    """Equal-width tasks over classes 0..class_count-1, in id order.

    Task t introduces ``samples_per_class`` samples of each of its
    ``class_count // tasks`` new classes and replays
    ``replay_per_old_class`` exemplars of every class an earlier task
    introduced.  Each number is a count (``kernel._count``): at least one
    class, one task and one sample per class, no negative replay, and
    the task count must divide the class count; anything else is a
    ``DomainError``.
    """

    class_count: int
    tasks: int
    samples_per_class: int
    replay_per_old_class: int

    def __post_init__(self):
        _count(self.class_count, "class count", 1)
        _count(self.tasks, "task count", 1)
        _count(self.samples_per_class, "samples per class", 1)
        _count(self.replay_per_old_class, "replay per old class")
        if self.class_count % self.tasks != 0:
            raise DomainError(
                f"class count {self.class_count} not divisible by task count {self.tasks}"
            )

    def new_classes(self, t: int) -> range:
        """The class ids task ``t`` introduces, 0 <= t < tasks."""
        t = _count(t, "task index", 0, self.tasks)
        width = self.class_count // self.tasks
        return range(t * width, (t + 1) * width)

    def task_labels(self, t: int) -> np.ndarray:
        """Task ``t``'s labels, unshuffled: ``samples_per_class`` of each
        new class in id order, then ``replay_per_old_class`` of each class
        an earlier task introduced."""
        new = self.new_classes(t)
        return np.concatenate([
            np.repeat(new, self.samples_per_class),
            np.repeat(np.arange(new.start), self.replay_per_old_class),
        ])


@dataclass(frozen=True, eq=False)
class SupervisionTrace:
    """A single-label stream of integer labels and its per-class
    polarities; compared by identity, its labels read-only once checked
    with their class count as a label vector (``kernel._label_vector``)."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        labels = _label_vector(self.labels, self.class_count)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def _is_class(self, class_id: int) -> np.ndarray:
        return self.labels == _count(class_id, "class id", 0, self.class_count)

    def polarities(self, class_id: int) -> np.ndarray:
        """a_k[n]: +1 at the class's own steps, -1 elsewhere."""
        return np.where(self._is_class(class_id), 1.0, -1.0)

    def cumulative_positives(self, class_id: int) -> np.ndarray:
        """S_k[n]: positives of the class among steps 0..n."""
        return np.cumsum(self._is_class(class_id)).astype(np.int64)

    def s_curve_table(self) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
        """The ``s_curves.csv`` table as ``(header, columns)``: S_k[n] of
        every class k at every step n, class-major.

        All three columns are of ``_index_dtype(self)``, the smallest
        unsigned integer dtype that holds the step count and the class
        count: ``uint8`` up to 255 of each, ``uint16`` up to 65,535,
        ``uint32`` beyond."""
        steps, dtype = len(self), _index_dtype(self)
        classes = np.arange(self.class_count, dtype=dtype)
        s_curves = np.cumsum(classes[:, None] == self.labels, axis=1, dtype=dtype)
        return ("step", "class", "cumulative_positives"), (
            np.tile(np.arange(steps, dtype=dtype), self.class_count),
            np.repeat(classes, steps),
            s_curves.ravel(),
        )


def _index_dtype(trace: SupervisionTrace) -> np.dtype:
    """The smallest unsigned integer dtype that holds every step id, class
    id and positive count of ``trace``: each is at most its step count or
    its class count."""
    return np.min_scalar_type(max(len(trace), trace.class_count))


def generate_stream(schedule: TaskSchedule, seed: int) -> SupervisionTrace:
    """Emit the step-per-sample label stream a schedule induces.

    Within each task the new-class samples and the replay exemplars of
    every already-seen class (``schedule.task_labels``) are shuffled
    uniformly, by a generator seeded with ``seed``; tasks stay in order.
    """
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    for t in range(schedule.tasks):
        labels = schedule.task_labels(t)
        rng.shuffle(labels)
        chunks.append(labels)
    return SupervisionTrace(labels=np.concatenate(chunks), class_count=schedule.class_count)


def _deltas(f: np.ndarray, n: int) -> np.ndarray:
    """Delta_n = f[N-2-n] - f[N-1-n] for n = 0..N-2 (empty when N == 1)."""
    if n == 1:
        return f[:0]
    return f[n - 2 :: -1] - f[n - 1 : 0 : -1]


@lru_cache(maxsize=32)
def _memory_kernel_terms(lam: float, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """f[:N], Delta and sum(f) of a MemoryKernel, memoised per (lam, N).

    They are read-only, as every such call shares the arrays.
    """
    f = MemoryKernel(lam=lam).weights(n)
    deltas = _deltas(f, n)
    f.flags.writeable = deltas.flags.writeable = False
    return f, deltas, float(np.sum(f))


def _phi(f: np.ndarray, deltas: np.ndarray, s: np.ndarray) -> float:
    return float(f[0] * s[-1] - np.dot(deltas, s[:-1]))


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one monotonicity check on a pair of classes.

    ``gap_by_parts`` is Q_b - Q_a evaluated through the summation-by-parts
    differences, 2 * sum_n Delta_n * (S_a[n] - S_b[n]): a sum of same-sign
    terms, so it stays positive for strictly dominated pairs even when the
    direct difference q_b - q_a underflows to zero next to |Q| (a gap
    carried entirely by ancient steps can be ~1e-90 while Q is O(1)).
    """

    q_a: float
    q_b: float
    phi_a: float
    phi_b: float
    gap_by_parts: float
    dominance_held: bool
    strict_dominance: bool
    conclusion_held: bool


def verify_theorem1(kernel: MemoryKernel, pair) -> TheoremVerdict:
    """Check Q_A <= Q_B for an equal-positive-count, dominance-ordered pair.

    ``kernel`` is a MemoryKernel; ``pair`` is a pair of nonempty +1/-1
    sequences (``kernel._polarity_floats``), such as two classes'
    ``SupervisionTrace.polarities``.  Both evaluation
    paths are computed and cross-checked: Q by direct convolution and
    Q = 2*Phi - sum(f) through the cumulative curves.  Raises if the
    pair's positive totals differ (the hypothesis of the statement), or
    if the two paths disagree beyond 1e-10.
    """
    a_seq, b_seq = map(_polarity_floats, pair)
    if a_seq.ndim != 1 or a_seq.shape != b_seq.shape:
        raise DomainError("pair sequences must be 1-d and of equal length")
    if a_seq.size == 0:
        raise DomainError("pair sequences must be nonempty")
    n = a_seq.shape[0]
    s_a, s_b = np.cumsum((a_seq > 0, b_seq > 0), axis=1, dtype=np.float64)
    if s_a[-1] != s_b[-1]:
        raise DomainError(
            f"classes have unequal positive totals ({int(s_a[-1])} vs {int(s_b[-1])}); "
            "the monotonicity statement assumes equal counts"
        )
    f, deltas, kernel_mass = _memory_kernel_terms(kernel.lam, n)
    q_a = _convolve(f, a_seq)
    q_b = _convolve(f, b_seq)
    phi_a = _phi(f, deltas, s_a)
    phi_b = _phi(f, deltas, s_b)
    scale = max(1.0, kernel_mass)
    if abs(q_a - (2.0 * phi_a - kernel_mass)) > 1e-10 * scale or abs(
        q_b - (2.0 * phi_b - kernel_mass)
    ) > 1e-10 * scale:
        raise TalcilError("convolution and summation-by-parts paths disagree")
    lead = s_a - s_b
    gap_by_parts = 2.0 * float(np.dot(deltas, lead[:-1]))
    dominance = bool(lead.min() >= 0.0)
    strict = dominance and bool(lead.max() > 0.0)
    return TheoremVerdict(
        q_a=q_a,
        q_b=q_b,
        phi_a=phi_a,
        phi_b=phi_b,
        gap_by_parts=gap_by_parts,
        dominance_held=dominance,
        strict_dominance=strict,
        conclusion_held=bool(q_a <= q_b + 1e-12 * scale),
    )


_WORD = 1 << 32  # numpy draws a bounded integer of span <= 2**32 from 32-bit words
_LOW_BITS = _WORD - 1


def _bounded(span: int, next_word) -> int:
    """An offset in [0, span) by numpy's bounded-integer rule, 1 <= span <= 2**32.

    This is Lemire's multiply-shift map with rejection (Lemire 2019,
    "Fast random integer generation in an interval"), which numpy's
    ``Generator.integers`` applies to each 32-bit word for such spans:
    the offset is the high half of ``word * span``, and a word whose low
    half falls below ``(2**32 - span) % span`` is redrawn.  A one-value
    span consumes no word.  Fed the generator's own next words, it
    returns what ``rng.integers(low, low + span)`` would and consumes
    exactly the words that call would.
    """
    if span == 1:
        return 0
    m = next_word() * span
    if m & _LOW_BITS < span:  # only then can the word be rejected
        threshold = (_WORD - span) % span
        while m & _LOW_BITS < threshold:
            m = next_word() * span
    return m >> 32


def sample_dominance_pair(
    rng: np.random.Generator, length: int, positives: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random equal-count pair with S_A >= S_B at every step.

    B's positive positions are a uniform sorted sample; A's i-th positive
    is then placed uniformly at or before B's i-th (and after A's
    previous one), which forces pointwise dominance of A's cumulative
    curve.

    A's positions are what one scalar ``rng.integers(prev + 1, b + 1)``
    per positive gives, and the generator ends in the state those calls
    leave: each 32-bit word comes from the generator's own source, the
    ``next_uint32`` that ``Generator.integers`` calls.
    """
    length = _count(length, "length", 1, _WORD + 1)  # numpy's 32-bit bounded rule
    positives = _count(positives, "positives", 1, length + 1)
    b_pos = np.sort(rng.choice(length, size=positives, replace=False))
    source = rng.bit_generator.ctypes
    next_word = partial(source.next_uint32, source.state)
    a_list = []
    prev = -1
    for b in b_pos.tolist():
        prev += 1 + _bounded(b - prev, next_word)
        a_list.append(prev)
    a_seq = np.full(length, -1.0)
    b_seq = np.full(length, -1.0)
    a_seq[a_list] = 1.0
    b_seq[b_pos] = 1.0
    return a_seq, b_seq
