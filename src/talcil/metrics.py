"""Reported quantities: per-class precision/recall, accuracy summaries,
forgetting curves, and the rank-correlation diagnostics.

Precision for a class nobody predicted is 0/0; it is reported as an
explicit undefined flag (NaN value + False in the defined mask), never
silently 0, so a fully-forgotten class cannot fake a precision-recall
asymmetry of zero.

Rank correlations are Spearman (average ranks on ties): the diagnostics
are about monotone trends, not about any particular linear scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import _label_vector

__all__ = [
    "PerClassMetrics",
    "MetricsReport",
    "AsymmetryResult",
    "confusion_matrix",
    "confusion_and_prf",
    "asymmetry_index",
    "forgetting_curve",
    "seed_summary",
    "spearman",
]

# The header of each per-seed table a run writes (``<table>_seed<N>.csv``).
TABLE_HEADERS = {
    "accuracy_matrix": ("after_task", "on_task", "accuracy"),
    "per_class": (
        "task_id",
        "class_id",
        "precision",
        "recall",
        "support",
        "q_value",
        "precision_defined",
    ),
    "q_snapshots": ("step", "class_id", "q_value"),
}


@dataclass(frozen=True)
class PerClassMetrics:
    precision: np.ndarray          # NaN where undefined
    recall: np.ndarray             # NaN where undefined (empty class support)
    support: np.ndarray
    precision_defined: np.ndarray  # bool mask
    recall_defined: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Everything one incremental run produces.

    accuracy_matrix[t][u] is the accuracy on task u's test split after
    training task t (u <= t; upper triangle is NaN).  overall_accuracy[t]
    is the accuracy over all classes seen by task t.  per_task[t] holds
    the per-class metrics over those classes after task t, and
    q_snapshots[t] the (global step, tracker q) at that point.
    events is the per-step table of ``events_seed<N>.jsonl``, ``{key:
    column}``: every training step's task, epoch, step and the cell's loss.
    """

    accuracy_matrix: np.ndarray
    overall_accuracy: np.ndarray
    per_task: tuple[PerClassMetrics, ...]
    q_snapshots: tuple[tuple[int, np.ndarray], ...]
    seed: int
    events: dict[str, np.ndarray]

    @property
    def a_mean(self) -> float:
        return float(self.overall_accuracy.mean())

    @property
    def a_last(self) -> float:
        return float(self.overall_accuracy[-1])

    def tables(self) -> dict[str, tuple[tuple[str, ...], tuple]]:
        """The run's per-seed CSV tables, ``{file name: (header, columns)}``.

        An undefined precision is an empty cell, flagged 0 in
        ``precision_defined``.
        """
        after, on = np.tril_indices(self.accuracy_matrix.shape[0])
        sizes = [q.shape[0] for _, q in self.q_snapshots]
        class_ids = np.concatenate([np.arange(size) for size in sizes])
        q_values = np.concatenate([q for _, q in self.q_snapshots])

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(prf, name) for prf in self.per_task])

        defined = joined("precision_defined")
        precision = joined("precision").astype(object)
        precision[~defined] = None
        columns = {
            "accuracy_matrix": (after, on, self.accuracy_matrix[after, on]),
            "per_class": (
                np.repeat(np.arange(len(sizes)), sizes),
                class_ids,
                precision,
                joined("recall"),
                joined("support"),
                q_values,
                defined,
            ),
            "q_snapshots": (
                np.repeat([step for step, _ in self.q_snapshots], sizes),
                class_ids,
                q_values,
            ),
        }
        return {
            f"{table}_seed{self.seed}.csv": (header, columns[table])
            for table, header in TABLE_HEADERS.items()
        }


def seed_summary(rows, by=()) -> list[dict]:
    """Mean and (population) std over seeds of ``a_mean`` and ``a_last``.

    ``rows`` are dicts holding ``a_mean``, ``a_last`` and the keys named
    in ``by``; the rows that agree on those keys are one group, such as
    one ablation cell over its seeds.  Each group gives one dict: its
    ``by`` keys plus ``a_mean_mean``, ``a_mean_std``, ``a_last_mean`` and
    ``a_last_std``.  Groups come sorted by their keys, a ``None`` key
    (the CE cell's lambda and r) counting as 0.
    """
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(tuple(row[key] for key in by), []).append(row)
    out = []
    for key in sorted(groups, key=lambda key: tuple(0.0 if v is None else v for v in key)):
        summary = dict(zip(by, key))
        for name in ("a_mean", "a_last"):
            values = np.array([row[name] for row in groups[key]])
            summary[f"{name}_mean"] = float(values.mean())
            summary[f"{name}_std"] = float(values.std())
        out.append(summary)
    return out


def confusion_matrix(predictions, labels, class_count: int) -> np.ndarray:
    """counts[i, j] = number of samples with true class i predicted as j.

    Both vectors are label vectors over ``class_count`` classes
    (``kernel._label_vector``, which checks the count first): a float,
    string, 2-d or out-of-range input is refused, never truncated or
    flattened."""
    y_pred = _label_vector(predictions, class_count)
    y_true = _label_vector(labels, class_count)
    if y_pred.shape != y_true.shape:
        raise DomainError("predictions and labels must have the same length")
    cells = np.bincount(y_true * class_count + y_pred, minlength=class_count * class_count)
    return cells.reshape(class_count, class_count)


def confusion_and_prf(predictions, labels, class_count: int) -> PerClassMetrics:
    """Per-class precision/recall/support from a prediction vector."""
    counts = confusion_matrix(predictions, labels, class_count)
    tp = np.diag(counts).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)   # tp + fp
    support = counts.sum(axis=1)                        # tp + fn
    precision_defined = predicted > 0
    recall_defined = support > 0
    precision = np.full(class_count, np.nan)
    recall = np.full(class_count, np.nan)
    np.divide(tp, predicted, out=precision, where=precision_defined)
    np.divide(tp, support.astype(np.float64), out=recall, where=recall_defined)
    return PerClassMetrics(
        precision=precision,
        recall=recall,
        support=support,
        precision_defined=precision_defined,
        recall_defined=recall_defined,
    )


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties share the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts, dtype=np.float64)
    return (ends - 0.5 * (counts - 1))[inverse]


def spearman(x, y) -> float:
    """Spearman rank correlation; NaN when either side has zero rank variance."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise DomainError("spearman needs two equal-length vectors")
    if xv.shape[0] < 3:
        raise DomainError("rank correlation needs at least 3 points")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise DomainError("rank correlation inputs must be finite (mask NaNs first)")
    rx = _rank(xv)
    ry = _rank(yv)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.dot(rx, rx) * np.dot(ry, ry))
    if denom == 0.0:
        return float("nan")
    return float(np.dot(rx, ry) / denom)


@dataclass(frozen=True)
class AsymmetryResult:
    """Per-class (precision - recall) and its rank correlation with age."""

    index: np.ndarray              # NaN where precision undefined
    age_correlation: float         # NaN when degenerate
    included: np.ndarray           # mask of classes that entered the correlation


def asymmetry_index(per_class: PerClassMetrics, class_age) -> AsymmetryResult:
    """Precision-minus-recall per class, correlated against class age.

    ``class_age`` is larger for classes learned longer ago.  A positive
    correlation means old classes skew toward precision (the temporal
    imbalance signature); classes with undefined precision are excluded
    from the correlation but stay visible in the index as NaN.
    """
    age = np.asarray(class_age, dtype=np.float64)
    if age.shape != per_class.precision.shape:
        raise DomainError("class_age must align with the per-class metrics")
    index = per_class.precision - per_class.recall
    included = per_class.precision_defined & per_class.recall_defined
    if int(included.sum()) < 3:
        raise DomainError(
            "need at least 3 classes with defined precision and recall "
            "for the age correlation"
        )
    corr = spearman(index[included], age[included])
    return AsymmetryResult(index=index, age_correlation=corr, included=included)


def forgetting_curve(accuracy_matrix: np.ndarray) -> list[np.ndarray]:
    """Each task's accuracy tracked over all subsequent evaluations.

    curves[t][i] is task t's accuracy after task t+i was trained.
    """
    acc = np.asarray(accuracy_matrix, dtype=np.float64)
    if acc.ndim != 2 or acc.shape[0] != acc.shape[1]:
        raise DomainError("accuracy matrix must be square")
    return [acc[t:, t].copy() for t in range(acc.shape[0])]
