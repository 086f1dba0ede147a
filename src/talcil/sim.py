"""Desk-scale class-incremental trainer on synthetic Gaussian classes.

Classes are isotropic Gaussians with means placed on a sphere under a
minimum-separation constraint, split into the equal-width tasks of a
``TaskSchedule`` that arrive in order.  The classifier is a softmax head
(linear, or with one ReLU hidden layer) trained by plain SGD: each step
computes the hidden layer once (``features``) and hands it to both the
logits and the SGD step.  When a task introduces classes the head grows
zero-initialized columns and the tracker grows zero entries.

Replay follows the usual fixed-budget recipe: the exemplars closest to a
class's mean (mean-matching in input space) are picked as a seed's data
are drawn and replayed into every later task's training pool.

Both loss kinds advance the tracker with the fractional minibatch rule;
under plain cross-entropy the tracker is a pure diagnostic (it never
touches the loss), which is what lets the Q-vs-recall association be
measured on the baseline.

A run is the seeds of an ``ExperimentSpec`` times one or more loss
blocks, all trained together in lockstep (``train_cells``).  Each seed
draws its own dataset, head initial weights and batch order, and the
spec's ``ScheduleBlock`` fixes the rest; a seed's cells differ only in
their ``LossBlock``.  Cell (seed, loss) is one slice of a head stacked
over both, so each training step runs one forward and one SGD step for
every cell, and each cell's own loss and tracker step on its slice; a
cell stops once its logits or loss are no longer finite, and its report
holds its loss at every step.  Evaluation goes one cell at a time and
holds one cell's test logits.  Every seed's data are held at once.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentSpec, LossBlock, check_calibration
from .errors import DomainError, SolverError, TrainingError
from .kernel import MemoryKernel, Minibatch, QState, _count, update_batched
from .loss import TalConfig, ce_forward, training_step
from .metrics import MetricsReport, PerClassMetrics, asymmetry_index, confusion_and_prf
from .streams import TaskSchedule

__all__ = [
    "SyntheticDataset",
    "Classifier",
    "make_gaussian_tasks",
    "train_cells",
    "train_incremental",
    "ablate",
    "desk_scale_pair",
    "class_ages",
]

ABLATION_LAMBDAS = (0.99, 0.995, 0.999, 0.9995)
ABLATION_RS = (0.2, 0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class SyntheticDataset:
    """Gaussian mixture with balanced, seed-disjoint train/test splits."""

    class_means: np.ndarray      # (C, d)
    train: np.ndarray            # (C, train_per_class, d)
    test: np.ndarray             # (C, test_per_class, d)


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


def make_gaussian_tasks(spec: ExperimentSpec, seed: int) -> SyntheticDataset:
    """The dataset of one spec seed, which ``spec.task_schedule`` splits
    into tasks: the seed draws the means and the samples of the problem
    that the spec's ``DatasetBlock`` checked when it was built."""
    data = spec.dataset
    rng = np.random.default_rng(seed)
    means = _place_means(rng, data.classes, data.dim, data.sep)
    train = rng.standard_normal((data.classes, data.per_class, data.dim))
    test = rng.standard_normal((data.classes, data.test_per_class, data.dim))
    for split in (train, test):  # in place, so a draw makes no temporaries
        split *= data.cov_scale
        split += means[:, None, :]
    return SyntheticDataset(class_means=means, train=train, test=test)


class Classifier:
    """Softmax head over raw inputs, optionally through one ReLU layer.

    The head starts with zero classes and grows zero-initialized columns
    as tasks introduce classes.  ``Classifier.stack`` joins heads of one
    shape into a head whose arrays carry a leading cells axis (stacking
    stacked heads adds another); every method then computes all cells
    with one ``np.matmul`` per product, broadcasting inputs with matching
    leading axes, and each cell's slice is bit for bit what its lone head
    computes.  Evaluation predicts through ``cell(k)``, one slice at a time.
    """

    def __init__(self, dim: int, hidden: int = 0, seed: int = 0):
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

    @classmethod
    def stack(cls, heads) -> "Classifier":
        """One head holding ``heads`` (all of one shape) along a cells axis."""
        stacked = copy.copy(heads[0])
        for name in _WEIGHTS:
            if getattr(stacked, name) is not None:
                setattr(stacked, name, np.stack([getattr(h, name) for h in heads]))
        return stacked

    def cell(self, k) -> "Classifier":
        """Cell ``k`` (an index into the cells axes) of a stacked head, as a
        head whose arrays are no-copy views of the stack's."""
        view = copy.copy(self)
        for name in _WEIGHTS:
            if getattr(self, name) is not None:
                setattr(view, name, getattr(self, name)[k])
        return view

    def clear(self, k: int) -> None:
        """Zero cell ``k`` (an index into the cells axes) of a stacked head:
        from here on it computes zero logits and, given a zero logit
        gradient, a zero SGD step."""
        for name in _WEIGHTS:
            if getattr(self, name) is not None:
                getattr(self, name)[k] = 0.0

    @property
    def class_count(self) -> int:
        return self.w.shape[-1]

    def add_classes(self, n_new: int) -> None:
        n_new = _count(n_new, "new class count")
        self.w = np.concatenate([self.w, np.zeros((*self.w.shape[:-1], n_new))], axis=-1)
        self.b = np.concatenate([self.b, np.zeros((*self.b.shape[:-1], n_new))], axis=-1)

    def features(self, x: np.ndarray) -> np.ndarray:
        """The softmax layer's inputs: the ReLU layer's output, or x itself."""
        x = np.asarray(x, dtype=np.float64)
        if self.w1 is None:
            return x
        return np.maximum(x @ self.w1 + self.b1[..., None, :], 0.0)

    def logits(self, h: np.ndarray) -> np.ndarray:
        """The softmax layer's logits from its inputs ``h = features(x)``."""
        z = h @ self.w
        z += self.b[..., None, :]
        return z

    def train_batch(self, x: np.ndarray, h: np.ndarray, grad_logits: np.ndarray, lr: float) -> None:
        """SGD step from the loss's logit gradient (mean-reduced already),
        given the inputs ``x`` and the ``features(x)`` the logits came from."""
        if self.w1 is not None:  # the hidden layer's gradient reads w before its step
            grad_h = grad_logits @ self.w.swapaxes(-1, -2)
            grad_h[h <= 0.0] = 0.0
            self.w1 -= lr * (x.swapaxes(-1, -2) @ grad_h)
            self.b1 -= lr * np.add.reduce(grad_h, axis=-2)  # ndarray.sum without its wrapper
        self.w -= lr * (h.swapaxes(-1, -2) @ grad_logits)
        self.b -= lr * np.add.reduce(grad_logits, axis=-2)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(self.features(x)), axis=-1)


_WEIGHTS = ("w1", "b1", "w", "b")


def _select_exemplars(pool: np.ndarray, count: int) -> np.ndarray:
    """Mean-matching pick: the ``count`` samples closest to the class mean."""
    center = pool.mean(axis=0)
    dists = np.linalg.norm(pool - center, axis=1)
    order = np.argsort(dists, kind="stable")[:count]
    return pool[np.sort(order)]


def class_ages(schedule: TaskSchedule) -> np.ndarray:
    """Age per class id: tasks elapsed since the class was introduced."""
    width = schedule.class_count // schedule.tasks
    return (schedule.tasks - 1 - np.arange(schedule.class_count) // width).astype(np.float64)


def _batches(rngs, pool_x, pool_y, class_count: int, epochs: int, batch_size: int):
    """(inputs, minibatches) of every step of a task, ``ceil(n / batch_size)``
    per epoch, in training order: the inputs of every seed as one
    ``(S, 1, N, d)`` array gathered from the pool and one minibatch per
    seed.  Each seed draws its own permutation per epoch; one
    ``Minibatch.split`` per epoch serves every seed."""
    n_seeds, n, _ = pool_x.shape
    rows = np.arange(n_seeds)[:, None]
    for _ in range(epochs):
        perms = np.array([rng.permutation(n) for rng in rngs])
        pieces = Minibatch.split(pool_y[perms].ravel(), class_count, batch_size, n_seeds)
        per_seed = len(pieces) // n_seeds
        for i in range(per_seed):
            cols = perms[:, i * batch_size : (i + 1) * batch_size]
            yield pool_x[rows, cols][:, None], pieces[i::per_seed]


def train_cells(spec: ExperimentSpec, losses) -> list[list[MetricsReport]]:
    """Task-sequential training with replay of every spec seed times
    several loss blocks in lockstep; ``reports[i][l]`` is seed
    ``spec.seeds[i]`` under ``losses[l]``.

    Each seed keeps its own problem (``make_gaussian_tasks``), head
    ``Classifier(spec.dataset.dim, spec.schedule.hidden, seed)``, batch
    order, pools and replay exemplars (picked as its data are drawn);
    every cell starts from an empty tracker and trains under the spec's
    ``ScheduleBlock``, so a seed's cells differ only in their
    ``LossBlock``.  The seeds' data are held once, as ``(S, ...)``
    arrays, so a run's memory grows with its seed count; a task's split
    lives until its pool is built, the exemplars until the last pool is,
    and each step gathers its batch from the pool.  All seeds have one
    schedule and so one step count: each epoch's labels are checked once,
    by one ``Minibatch.split`` whose pieces every cell's loss and tracker
    step read.  Cell (s, l) is slice (s, l) of one stacked head from the
    first step to the last: training is stacked, one ``np.matmul`` per
    product giving every cell's logits and SGD step, and each cell runs
    its own loss and tracker step on its slice.  Evaluation goes one live
    cell at a time (``head.cell``), so it holds one cell's test logits.
    Each cell's products are its own slice's, so its report, step losses
    included, is bit for bit that of training its seed and loss alone.

    The tracker is advanced once per training minibatch (never during
    evaluation).  At each task boundary every live cell gets its step's
    ``TalConfig`` (re-solved, as the class count grows) or ``MemoryKernel``.
    Before any loss runs, one check of every cell's logits fails the
    cells whose logits are not finite ("training diverged"); a cell whose
    loss is not finite fails too ("loss diverged").  A failed cell stops:
    its slice is zeroed, so the stacked products stay finite, and the
    others train on.  The ``TrainingError`` of the first failed cell in
    (seed, loss) order is raised at the end, carrying its own step.
    """
    seeds, losses = spec.seeds, list(losses)
    if not losses:
        raise DomainError("need at least one loss cell")
    n_seeds, n_losses = len(seeds), len(losses)
    cells = n_seeds * n_losses  # cell k is (seed k // n_losses, loss k % n_losses)
    data, schedule = spec.dataset, spec.task_schedule
    shape = (n_seeds, data.classes // data.tasks, data.per_class, data.dim)
    train = [np.empty(shape) for _ in range(data.tasks)]  # one split per task, until its pool
    test = np.empty((n_seeds, data.classes, data.test_per_class, data.dim))
    replay = np.empty((n_seeds, data.classes, schedule.replay_per_old_class, data.dim))
    for i, seed in enumerate(seeds):
        dataset = make_gaussian_tasks(spec, seed)
        for t, part in enumerate(np.split(dataset.train, data.tasks)):
            train[t][i] = part
        replay[i] = [_select_exemplars(s, schedule.replay_per_old_class) for s in dataset.train]
        test[i] = dataset.test
        del dataset, part  # part is a view: free the seed's draw before the next one
    rngs = [np.random.default_rng(seed) for seed in seeds]
    head = Classifier.stack(
        [Classifier.stack([Classifier(data.dim, spec.schedule.hidden, seed)] * n_losses)
         for seed in seeds]
    )
    q_states = [QState(q=np.zeros(0))] * cells
    live = list(range(cells))  # the cells still training, in (seed, loss) order
    errors: list[TrainingError | None] = [None] * cells
    acc_matrix = np.full((cells, data.tasks, data.tasks), np.nan)
    overall = np.zeros((cells, data.tasks))
    per_task: list[list[PerClassMetrics]] = [[] for _ in range(cells)]
    snapshots: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(cells)]
    step_losses = []  # one (cells, steps) array per task
    global_step = 0
    epochs, batch_size, lr = spec.schedule.epochs, spec.schedule.batch_size, spec.schedule.lr

    for t in range(data.tasks):
        new = schedule.new_classes(t)
        head.add_classes(len(new))
        c_now = head.class_count
        params = [None] * cells  # a live cell's TalConfig or MemoryKernel for the task
        for k in live:
            loss = losses[k % n_losses]
            q_states[k] = q_states[k].append_classes(len(new))
            params[k] = MemoryKernel(lam=loss.lam) if loss.kind == "CE" else TalConfig.for_classes(
                loss.lam, loss.r, c_now, loss.epsilon, exploratory=loss.exploratory
            )

        pool_x = np.concatenate(
            [train[t].reshape(n_seeds, -1, data.dim),
             replay[:, : new.start].reshape(n_seeds, -1, data.dim)],
            axis=1,
        )
        train[t] = None  # the pool holds the task's training split from here on
        replay = replay if new.stop < data.classes else None  # the last pool is their last reader
        pool_y = schedule.task_labels(t)
        per_epoch = -(-len(pool_y) // batch_size)  # the steps _batches yields per epoch
        step_losses.append(np.zeros((cells, epochs * per_epoch)))

        task_steps = _batches(rngs, pool_x, pool_y, c_now, epochs, batch_size)
        for j, (xb, batches) in enumerate(task_steps):
            h = head.features(xb)
            z = head.logits(h)
            z_cells = z.reshape(cells, -1, c_now)
            finite = np.logical_and.reduce(np.isfinite(z_cells), axis=(1, 2)).tolist()
            grads = np.zeros(z_cells.shape)  # a stopped cell steps by zero
            still = []
            for k in live:  # a loss is never handed non-finite logits
                loss, batch = losses[k % n_losses], batches[k // n_losses]
                if finite[k] and loss.kind == "TAL":
                    out, q_states[k] = training_step(params[k], q_states[k], z_cells[k], batch)
                elif finite[k]:
                    out = ce_forward(z_cells[k], batch)
                    q_states[k] = update_batched(
                        q_states[k], params[k], loss.r, batch, strict=not loss.exploratory
                    )
                if finite[k] and math.isfinite(out.loss):
                    grads[k] = out.grad_logits
                    step_losses[t][k, j] = out.loss
                    still.append(k)
                    continue
                what = "loss" if finite[k] else "training"
                errors[k] = TrainingError(f"{what} diverged at step {global_step}", step=global_step)
                head.clear(divmod(k, n_losses))
            live = still
            if not live:
                break
            head.train_batch(xb, h, grads.reshape(z.shape), lr)
            global_step += 1
        if not live:
            break
        del pool_x, xb, h, z, z_cells, grads  # free the task's inputs before evaluation

        test_y = np.repeat(np.arange(c_now), data.test_per_class)  # one block per task
        for k in live:  # one cell's test logits at a time
            x = test[k // n_losses, :c_now].reshape(-1, data.dim)  # a view, as test is whole
            preds = head.cell(divmod(k, n_losses)).predict(x)
            correct = preds == test_y
            overall[k, t] = correct.mean()
            acc_matrix[k, t, : t + 1] = correct.reshape(t + 1, -1).mean(axis=1)
            per_task[k].append(confusion_and_prf(preds, test_y, c_now))
            snapshots[k].append((global_step, q_states[k].q))

    first_error = next((error for error in errors if error is not None), None)
    if first_error is not None:
        raise first_error
    sizes = [part.shape[1] for part in step_losses]  # a task's steps, epochs * per_epoch
    steps = {"epoch": np.concatenate([np.arange(n) // (n // epochs) for n in sizes]),
             "step": np.arange(global_step), "task": np.repeat(np.arange(data.tasks), sizes)}
    step_losses = np.concatenate(step_losses, axis=1)
    reports = [
        MetricsReport(
            accuracy_matrix=acc_matrix[k],
            overall_accuracy=overall[k],
            per_task=tuple(per_task[k]),
            q_snapshots=tuple(snapshots[k]),
            seed=seeds[k // n_losses],
            events={**steps, "loss": step_losses[k]},
        )
        for k in range(cells)
    ]
    return [reports[i : i + n_losses] for i in range(0, cells, n_losses)]


def train_incremental(spec: ExperimentSpec) -> list[MetricsReport]:
    """Every spec seed trained under the spec's own loss, one report per
    seed in ``spec.seeds`` order: the one-loss case of ``train_cells``."""
    return [report for [report] in train_cells(spec, [spec.loss])]


def ablate(spec: ExperimentSpec, *, lambdas=ABLATION_LAMBDAS, rs=ABLATION_RS) -> list[dict]:
    """Full (lam, r) grid plus one cross-entropy baseline row, per spec seed.

    Every seed and cell trains in lockstep (``train_cells``), as
    ``train`` trains its seeds' one cell each; the spec's loss block is
    replaced by the grid.  Cells with
    r < 1 sit outside the calibrated domain and run in exploratory mode
    (range checks demoted to warnings); they are reported like any other
    cell.  Every cell is enumerated -- nothing is skipped.  Rows come
    cell-major, seed-minor, the CE cell first.  A lambda or r listed
    twice is a ``DomainError``: it would train one cell twice.  A TAL
    cell the spec's dataset cannot calibrate (``check_calibration``) is a
    ``SpecError``, raised before any cell trains, as ``train`` raises it
    for the spec's own loss.
    """
    for name, values in (("lambda", lambdas), ("r", rs)):
        if len(set(values)) != len(values):
            raise DomainError(f"ablation grid repeats a {name} value: {list(values)}")
    losses = [LossBlock(kind="CE")] + [
        LossBlock(lam=lam, r=r, exploratory=r < 1.0) for lam in lambdas for r in rs
    ]
    for loss in losses:
        check_calibration(spec.dataset, loss)
    reports = train_cells(spec, losses)
    return [
        {
            "loss": loss.kind.lower(),
            "lam": loss.lam if loss.kind == "TAL" else None,
            "r": loss.r if loss.kind == "TAL" else None,
            "seed": seed,
            "a_mean": seed_reports[c].a_mean,
            "a_last": seed_reports[c].a_last,
        }
        for c, loss in enumerate(losses)
        for seed, seed_reports in zip(spec.seeds, reports)
    ]


def desk_scale_pair(seed: int, *, lam: float = 0.995, r: float = 1.0) -> dict[str, dict]:
    """Plain cross-entropy and the adjusted loss on the desk-scale problem.

    One seed of the paired comparison on the default spec's problem (the
    ``DatasetBlock`` and ``ScheduleBlock`` defaults: 10 Gaussian classes in
    16-d, separation 2.5, arrive in 5 tasks of 100 training and 100 test
    samples per class, with 20 replay exemplars per old class); the CE and
    TAL cells train in lockstep on the same data and batch order.  Per
    loss kind ("ce", "tal") it gives ``a_mean``, ``a_last``, ``age_corr``
    (the rank correlation of class age with precision - recall after the
    last task), and the mean recall and precision of the first task's two
    classes (``early_recall``, ``early_precision``).
    """
    spec = ExperimentSpec(loss=LossBlock(lam=lam, r=r), seeds=(seed,))
    kinds = ("ce", "tal")
    losses = [replace(spec.loss, kind=kind.upper()) for kind in kinds]
    ages = class_ages(spec.task_schedule)
    results = {}
    [reports] = train_cells(spec, losses)
    for kind, report in zip(kinds, reports):
        final = report.per_task[-1]
        results[kind] = {
            "a_mean": report.a_mean,
            "a_last": report.a_last,
            "age_corr": asymmetry_index(final, ages).age_correlation,
            "early_recall": final.recall[:2].mean(),
            "early_precision": np.nanmean(final.precision[:2]),
        }
    return results
