"""Desk-scale class-incremental trainer on synthetic Gaussian classes.

Classes are isotropic Gaussians with means placed on a sphere under a
minimum-separation constraint, split into equal-width tasks that arrive
in order.  The classifier is a softmax head (linear, or with one ReLU
hidden layer) trained by plain SGD; when a task introduces classes the
head grows zero-initialized columns and the tracker grows zero entries.

Replay follows the usual fixed-budget recipe: when a class's task ends,
the exemplars closest to its empirical mean are kept (mean-matching in
input space) and replayed into every later task's training pool.

Both loss kinds advance the tracker with the fractional minibatch rule;
under plain cross-entropy the tracker is a pure diagnostic (it never
touches the loss), which is what lets the Q-vs-recall association be
measured on the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError, TrainingError
from .kernel import MemoryKernel, QState, update_batched
from .loss import TalConfig, ce_forward, training_step
from .metrics import MetricsReport, PerClassRow, confusion_and_prf
from .streams import TaskSchedule

__all__ = [
    "SyntheticDataset",
    "Classifier",
    "TrainState",
    "make_gaussian_tasks",
    "train_incremental",
    "ablate",
    "class_ages",
]

ABLATION_LAMBDAS = (0.99, 0.995, 0.999, 0.9995)
ABLATION_RS = (0.2, 0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class SyntheticDataset:
    """Gaussian mixture with balanced, seed-disjoint train/test splits."""

    class_means: np.ndarray      # (C, d)
    cov_scale: float
    train: np.ndarray            # (C, train_per_class, d)
    test: np.ndarray             # (C, test_per_class, d)
    seed: int

    @property
    def class_count(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


def _place_means(
    rng: np.random.Generator, class_count: int, dim: int, sep: float
) -> np.ndarray:
    """Means on the sphere of radius sep with pairwise distance >= sep."""
    for _ in range(200):
        raw = rng.standard_normal((class_count, dim))
        means = sep * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        diffs = means[:, None, :] - means[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= sep:
            return means
    raise SolverError(
        f"could not place {class_count} means in {dim}-d with separation {sep} "
        "after 200 attempts"
    )


def make_gaussian_tasks(
    class_count: int,
    dim: int,
    tasks: int,
    per_class: int,
    sep: float,
    seed: int,
    *,
    test_per_class: int = 100,
    cov_scale: float = 1.0,
    replay_per_old_class: int = 20,
) -> tuple[SyntheticDataset, TaskSchedule]:
    """Synthetic dataset plus the equal-width task schedule over it."""
    if sep <= 0:
        raise DomainError("separation must be positive")
    if class_count % tasks != 0:
        raise DomainError(
            f"class count {class_count} not divisible by task count {tasks}"
        )
    if per_class < 1 or test_per_class < 1:
        raise DomainError("need at least one sample per class and split")
    rng = np.random.default_rng(seed)
    means = _place_means(rng, class_count, dim, sep)
    train = means[:, None, :] + cov_scale * rng.standard_normal(
        (class_count, per_class, dim)
    )
    test = means[:, None, :] + cov_scale * rng.standard_normal(
        (class_count, test_per_class, dim)
    )
    dataset = SyntheticDataset(
        class_means=means, cov_scale=cov_scale, train=train, test=test, seed=seed
    )
    schedule = TaskSchedule.uniform(
        class_count=class_count,
        tasks=tasks,
        samples_per_class=per_class,
        replay_per_old_class=replay_per_old_class,
        shuffle_seed=seed,
    )
    return dataset, schedule


class Classifier:
    """Softmax head over raw inputs, optionally through one ReLU layer.

    The head starts with zero classes and grows zero-initialized columns
    as tasks introduce classes.
    """

    def __init__(self, dim: int, hidden: int = 0, seed: int = 0):
        self.dim = dim
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        if hidden > 0:
            self.w1 = 0.3 * rng.standard_normal((dim, hidden)) / np.sqrt(dim)
            self.b1 = np.zeros(hidden)
            feat = hidden
        else:
            self.w1 = None
            self.b1 = None
            feat = dim
        self.w = np.zeros((feat, 0))
        self.b = np.zeros(0)

    @property
    def class_count(self) -> int:
        return self.w.shape[1]

    def add_classes(self, n_new: int) -> None:
        if n_new < 0:
            raise DomainError("cannot add a negative number of classes")
        feat = self.w.shape[0]
        self.w = np.concatenate([self.w, np.zeros((feat, n_new))], axis=1)
        self.b = np.concatenate([self.b, np.zeros(n_new)])

    def _features(self, x: np.ndarray) -> np.ndarray:
        if self.w1 is None:
            return x
        return np.maximum(x @ self.w1 + self.b1, 0.0)

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self._features(np.asarray(x, dtype=np.float64)) @ self.w + self.b

    def train_batch(self, x: np.ndarray, grad_logits: np.ndarray, lr: float) -> None:
        """SGD step from the loss's logit gradient (mean-reduced already)."""
        x = np.asarray(x, dtype=np.float64)
        h = self._features(x)
        grad_w = h.T @ grad_logits
        grad_b = grad_logits.sum(axis=0)
        if self.w1 is not None:
            grad_h = grad_logits @ self.w.T
            grad_h[h <= 0.0] = 0.0
            self.w1 -= lr * (x.T @ grad_h)
            self.b1 -= lr * grad_h.sum(axis=0)
        self.w -= lr * grad_w
        self.b -= lr * grad_b

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)


@dataclass
class TrainState:
    """Everything one incremental run needs besides the data."""

    classifier: Classifier
    q_state: QState
    loss_kind: str               # "ce" or "tal"
    lam: float = 0.995
    r: float = 1.0
    epsilon: float = 1e-12
    lr: float = 0.1
    epochs_per_task: int = 20
    batch_size: int = 32
    seed: int = 0
    exploratory: bool = False

    def __post_init__(self):
        if self.loss_kind not in ("ce", "tal"):
            raise DomainError(f"loss kind must be 'ce' or 'tal', got {self.loss_kind!r}")
        if self.lr <= 0 or self.epochs_per_task < 1 or self.batch_size < 1:
            raise DomainError("invalid optimizer hyperparameters")


def fresh_state(
    loss_kind: str,
    dim: int,
    *,
    lam: float = 0.995,
    r: float = 1.0,
    epsilon: float = 1e-12,
    lr: float = 0.1,
    epochs_per_task: int = 20,
    batch_size: int = 32,
    seed: int = 0,
    hidden: int = 0,
    exploratory: bool = False,
) -> TrainState:
    return TrainState(
        classifier=Classifier(dim=dim, hidden=hidden, seed=seed),
        q_state=QState(q=np.zeros(0)),
        loss_kind=loss_kind,
        lam=lam,
        r=r,
        epsilon=epsilon,
        lr=lr,
        epochs_per_task=epochs_per_task,
        batch_size=batch_size,
        seed=seed,
        exploratory=exploratory,
    )


def _select_exemplars(pool: np.ndarray, count: int) -> np.ndarray:
    """Mean-matching pick: the ``count`` samples closest to the class mean."""
    center = pool.mean(axis=0)
    dists = np.linalg.norm(pool - center, axis=1)
    order = np.argsort(dists, kind="stable")[: min(count, pool.shape[0])]
    return pool[np.sort(order)]


def class_ages(schedule: TaskSchedule) -> np.ndarray:
    """Age per class id: tasks elapsed since the class was introduced."""
    last = len(schedule.tasks) - 1
    ages = np.zeros(schedule.class_count)
    for task in schedule.tasks:
        for k in task.new_class_ids:
            ages[k] = last - task.task_id
    return ages


def train_incremental(
    state: TrainState,
    dataset: SyntheticDataset,
    schedule: TaskSchedule,
    event_sink=None,
) -> MetricsReport:
    """Task-sequential training with replay; returns the full report.

    The tracker is advanced once per training minibatch (never during
    evaluation).  For the adjusted loss the calibration is re-solved at
    every task boundary because the class count grows.
    """
    n_tasks = len(schedule.tasks)
    rng = np.random.default_rng(state.seed)
    classifier = state.classifier
    q_state = state.q_state
    kernel = MemoryKernel(lam=state.lam)
    replay: dict[int, np.ndarray] = {}
    acc_matrix = np.full((n_tasks, n_tasks), np.nan)
    overall = np.zeros(n_tasks)
    per_class_rows: list[PerClassRow] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    seen_classes: list[int] = []
    global_step = 0
    batch_size, lr, strict = state.batch_size, state.lr, not state.exploratory

    for t, task in enumerate(schedule.tasks):
        classifier.add_classes(len(task.new_class_ids))
        q_state = q_state.append_classes(len(task.new_class_ids))
        c_now = classifier.class_count
        config = None
        if state.loss_kind == "tal":
            config = TalConfig.for_classes(
                state.lam,
                state.r,
                c_now,
                state.epsilon,
                exploratory=state.exploratory,
            )

        parts_x = [dataset.train[k] for k in task.new_class_ids]
        parts_y = [np.full(dataset.train.shape[1], k) for k in task.new_class_ids]
        for k in seen_classes:
            if task.replay_per_old_class > 0 and k in replay:
                buf = replay[k][: task.replay_per_old_class]
                parts_x.append(buf)
                parts_y.append(np.full(buf.shape[0], k))
        train_x = np.concatenate(parts_x)
        train_y = np.concatenate(parts_y).astype(np.int64)

        for epoch in range(state.epochs_per_task):
            perm = rng.permutation(train_x.shape[0])
            for start in range(0, perm.shape[0], batch_size):
                idx = perm[start : start + batch_size]
                xb, yb = train_x[idx], train_y[idx]
                z = classifier.logits(xb)
                # The loss functions reject non-finite logits with a
                # DomainError; in a training run that means divergence.
                try:
                    if config is not None:
                        out, q_state = training_step(config, q_state, z, yb)
                    else:
                        out = ce_forward(z, yb)
                        q_state = update_batched(
                            q_state,
                            kernel,
                            state.r,
                            np.bincount(yb, minlength=c_now),
                            batch_size=yb.shape[0],
                            strict=strict,
                        )
                except DomainError as exc:
                    if np.isfinite(z).all():
                        raise
                    raise TrainingError(
                        f"training diverged at step {global_step}", step=global_step
                    ) from exc
                if not math.isfinite(out.loss):
                    raise TrainingError(
                        f"loss diverged at step {global_step}", step=global_step
                    )
                classifier.train_batch(xb, out.grad_logits, lr)
                if event_sink is not None:
                    event_sink(
                        {
                            "task": t,
                            "epoch": epoch,
                            "step": global_step,
                            "loss": out.loss,
                        }
                    )
                global_step += 1

        seen_classes.extend(task.new_class_ids)
        for k in task.new_class_ids:
            replay[k] = _select_exemplars(
                dataset.train[k], task.replay_per_old_class
            )

        test_x = np.concatenate([dataset.test[k] for k in seen_classes])
        test_y = np.concatenate(
            [np.full(dataset.test.shape[1], k) for k in seen_classes]
        ).astype(np.int64)
        preds = classifier.predict(test_x)
        overall[t] = float(np.mean(preds == test_y))
        for u in range(t + 1):
            u_classes = schedule.tasks[u].new_class_ids
            mask = np.isin(test_y, u_classes)
            acc_matrix[t, u] = float(np.mean(preds[mask] == test_y[mask]))
        prf = confusion_and_prf(preds, test_y, c_now)
        for k in range(c_now):
            per_class_rows.append(
                PerClassRow(
                    task_id=t,
                    class_id=k,
                    precision=float(prf.precision[k]),
                    recall=float(prf.recall[k]),
                    support=int(prf.support[k]),
                    q_value=float(q_state.q[k]),
                    precision_defined=bool(prf.precision_defined[k]),
                )
            )
        snapshots.append((global_step, q_state.q.copy()))

    return MetricsReport(
        accuracy_matrix=acc_matrix,
        overall_accuracy=overall,
        per_class=tuple(per_class_rows),
        a_mean=float(overall.mean()),
        a_last=float(overall[-1]),
        seed=state.seed,
        loss_kind=state.loss_kind,
        q_snapshots=tuple(snapshots),
    )


def ablate(
    dataset: SyntheticDataset,
    schedule: TaskSchedule,
    seeds,
    *,
    lambdas=ABLATION_LAMBDAS,
    rs=ABLATION_RS,
    lr: float = 0.1,
    epochs_per_task: int = 20,
    batch_size: int = 32,
    hidden: int = 0,
) -> list[dict]:
    """Full (lam, r) grid plus one cross-entropy baseline row.

    Cells with r < 1 sit outside the calibrated domain and run in
    exploratory mode (range checks demoted to warnings); they are
    reported like any other cell.  Every cell is enumerated -- nothing
    is skipped.
    """
    rows: list[dict] = []
    for seed in seeds:
        report = train_incremental(
            fresh_state(
                "ce",
                dataset.dim,
                lr=lr,
                epochs_per_task=epochs_per_task,
                batch_size=batch_size,
                seed=seed,
                hidden=hidden,
            ),
            dataset,
            schedule,
        )
        rows.append(
            {
                "loss": "ce",
                "lam": None,
                "r": None,
                "seed": seed,
                "a_mean": report.a_mean,
                "a_last": report.a_last,
            }
        )
    for lam in lambdas:
        for r in rs:
            for seed in seeds:
                report = train_incremental(
                    fresh_state(
                        "tal",
                        dataset.dim,
                        lam=lam,
                        r=r,
                        lr=lr,
                        epochs_per_task=epochs_per_task,
                        batch_size=batch_size,
                        seed=seed,
                        hidden=hidden,
                        exploratory=r < 1.0,
                    ),
                    dataset,
                    schedule,
                )
                rows.append(
                    {
                        "loss": "tal",
                        "lam": lam,
                        "r": r,
                        "seed": seed,
                        "a_mean": report.a_mean,
                        "a_last": report.a_last,
                    }
                )
    return rows
