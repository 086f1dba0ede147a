import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from talcil import (
    DomainError,
    SolverError,
    TrainingError,
    ablate,
    make_gaussian_tasks,
    spearman,
    train_incremental,
)
from talcil.config import DatasetBlock, ExperimentSpec, LossBlock, ScheduleBlock
from talcil.sim import Classifier, class_ages, fresh_state, train_cells

CE = LossBlock(kind="CE")
TAL = LossBlock(kind="TAL")
LOSSES = {"ce": CE, "tal": TAL}
QUICK = ScheduleBlock(lr=0.1, epochs=20, batch_size=32)


def small_setup(seed=0, classes=10, tasks=5, per_class=100, sep=2.5, replay=20):
    return make_gaussian_tasks(
        classes, 16, tasks, per_class, sep, seed,
        test_per_class=100, replay_per_old_class=replay,
    )


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def test_dataset_is_bit_identical_for_same_seed():
    a, _ = small_setup(seed=5)
    b, _ = small_setup(seed=5)
    assert np.array_equal(a.class_means, b.class_means)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.test, b.test)
    c, _ = small_setup(seed=6)
    assert not np.array_equal(a.train, c.train)


def test_dataset_shapes_and_separation():
    ds, schedule = small_setup(seed=1, classes=10, tasks=5, per_class=30)
    assert ds.train.shape == (10, 30, 16)
    assert ds.test.shape == (10, 100, 16)
    dists = np.linalg.norm(
        ds.class_means[:, None, :] - ds.class_means[None, :, :], axis=2
    )
    np.fill_diagonal(dists, np.inf)
    assert dists.min() >= 2.5
    assert len(schedule.tasks) == 5
    assert schedule.tasks[0].new_class_ids == (0, 1)


def test_dataset_parameter_validation():
    with pytest.raises(DomainError):
        make_gaussian_tasks(10, 16, 3, 50, 2.5, 0)  # 10 % 3 != 0
    with pytest.raises(DomainError):
        make_gaussian_tasks(10, 16, 5, 50, -1.0, 0)
    with pytest.raises(SolverError):
        # 20 points on a radius-5 circle cannot be pairwise 5 apart
        make_gaussian_tasks(20, 2, 2, 10, 5.0, 0)


def test_widely_separated_classes_are_jointly_learnable():
    ds, schedule = make_gaussian_tasks(
        10, 16, 1, 100, 6.0, 0, test_per_class=100, replay_per_old_class=0
    )
    report = train_incremental(fresh_state(CE, QUICK, 16, 0), ds, schedule)
    assert report.a_last > 0.95


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classifier_head_grows_with_zero_columns():
    clf = Classifier(dim=4)
    clf.add_classes(2)
    x = np.ones((3, 4))
    assert clf.logits(x).shape == (3, 2)
    assert np.all(clf.logits(x) == 0.0)
    clf.w += 1.0
    clf.add_classes(1)
    z = clf.logits(x)
    assert z.shape == (3, 3)
    assert np.all(z[:, 2] == 0.0)  # new column starts silent
    assert np.all(z[:, :2] == 4.0)


def test_hidden_layer_classifier_trains():
    ds, schedule = make_gaussian_tasks(
        4, 8, 1, 60, 4.0, 0, test_per_class=50, replay_per_old_class=0
    )
    report = train_incremental(
        fresh_state(CE, replace(QUICK, hidden=32), 8, 0), ds, schedule
    )
    assert report.a_last > 0.9


def test_hidden_layer_incremental_run_grows_head_only():
    ds, schedule = make_gaussian_tasks(
        4, 8, 2, 40, 3.0, 0, test_per_class=30, replay_per_old_class=5
    )
    state = fresh_state(TAL, ScheduleBlock(hidden=16, lr=0.1, epochs=15, batch_size=16), 8, 0)
    report = train_incremental(state, ds, schedule)
    assert state.classifier.w1.shape == (8, 16)
    assert state.classifier.w.shape == (16, 4)
    assert report.overall_accuracy[-1] > 0.5  # well above the 0.25 chance level


# ---------------------------------------------------------------------------
# incremental training
# ---------------------------------------------------------------------------


def test_single_task_adjusted_and_plain_losses_agree_closely():
    ds, schedule = make_gaussian_tasks(
        10, 16, 1, 100, 2.5, 0, test_per_class=100, replay_per_old_class=0
    )
    acc = {}
    for kind in ("ce", "tal"):
        report = train_incremental(fresh_state(LOSSES[kind], QUICK, 16, 0), ds, schedule)
        acc[kind] = report.a_last
    assert abs(acc["tal"] - acc["ce"]) < 0.02


def test_accuracy_matrix_is_lower_triangular():
    ds, schedule = small_setup(seed=0, per_class=40)
    report = train_incremental(fresh_state(CE, QUICK, 16, 0), ds, schedule)
    acc = report.accuracy_matrix
    for t in range(5):
        for u in range(5):
            if u <= t:
                assert np.isfinite(acc[t, u])
            else:
                assert np.isnan(acc[t, u])
    # overall accuracy over seen classes equals the row mean on balanced tests
    for t in range(5):
        assert report.overall_accuracy[t] == pytest.approx(
            np.nanmean(acc[t, : t + 1]), abs=1e-12
        )
    assert report.a_last == report.overall_accuracy[-1]
    assert report.a_mean == pytest.approx(report.overall_accuracy.mean())


def test_ce_run_shows_age_skew_and_positive_q_recall_association():
    corr_q_recall = []
    early_skew = 0
    for seed in range(3):
        ds, schedule = small_setup(seed=seed)
        report = train_incremental(fresh_state(CE, QUICK, 16, seed), ds, schedule)
        final = report.per_task[4]
        recall = final.recall
        precision = final.precision
        q = report.q_snapshots[4][1]
        corr_q_recall.append(spearman(q, recall))
        if recall[:2].mean() < np.nanmean(precision[:2]):
            early_skew += 1
    assert np.mean(corr_q_recall) > 0.2
    assert early_skew >= 2


def test_adjusted_loss_beats_plain_on_paired_seeds():
    wins = 0
    for seed in range(2):
        ds, schedule = small_setup(seed=seed)
        a_last = {}
        for kind in ("ce", "tal"):
            report = train_incremental(
                fresh_state(LOSSES[kind], QUICK, 16, seed), ds, schedule
            )
            a_last[kind] = report.a_last
        wins += a_last["tal"] > a_last["ce"]
    assert wins == 2


def test_reports_are_reproducible():
    ds, schedule = small_setup(seed=3, per_class=40)
    a = train_incremental(fresh_state(TAL, QUICK, 16, 3), ds, schedule)
    b = train_incremental(fresh_state(TAL, QUICK, 16, 3), ds, schedule)
    assert np.array_equal(a.accuracy_matrix, b.accuracy_matrix, equal_nan=True)
    assert all(
        np.array_equal(getattr(m1, f.name), getattr(m2, f.name), equal_nan=True)
        for m1, m2 in zip(a.per_task, b.per_task, strict=True)
        for f in fields(m1)
    )
    assert a.a_mean == b.a_mean and a.a_last == b.a_last
    assert all(
        s1 == s2 and np.array_equal(q1, q2)
        for (s1, q1), (s2, q2) in zip(a.q_snapshots, b.q_snapshots)
    )


def test_tracker_tracks_classifier_growth():
    ds, schedule = small_setup(seed=0, per_class=30)
    report = train_incremental(fresh_state(TAL, QUICK, 16, 0), ds, schedule)
    # after task t there are 2*(t+1) classes, all with a tracker entry
    for t, (_, q) in enumerate(report.q_snapshots):
        assert q.shape == (2 * (t + 1),)


def test_divergent_run_raises_training_error_with_step():
    ds, schedule = make_gaussian_tasks(
        4, 8, 2, 20, 2.5, 0, test_per_class=10, replay_per_old_class=2
    )
    state = fresh_state(CE, ScheduleBlock(lr=1e308, epochs=3), 8, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingError) as err:
            train_incremental(state, ds, schedule)
    assert err.value.step is not None


def test_event_sink_sees_every_step():
    ds, schedule = make_gaussian_tasks(
        4, 8, 2, 24, 2.5, 0, test_per_class=10, replay_per_old_class=4
    )
    events = []
    train_incremental(
        fresh_state(CE, ScheduleBlock(lr=0.1, epochs=2, batch_size=16), 8, 0),
        ds,
        schedule,
        event_sink=events.append,
    )
    # task 0: 48 samples -> 3 batches/epoch; task 1: 48+8 -> 4 batches/epoch
    assert len(events) == 2 * 3 + 2 * 4
    assert [e["step"] for e in events] == list(range(len(events)))
    assert all(np.isfinite(e["loss"]) for e in events)


def test_forgetting_curve_directions():
    # the first task's accuracy decays over subsequent tasks under plain CE,
    # and the adjusted loss ends it higher (mean over 5 paired seeds)
    from talcil import forgetting_curve

    finals = {"ce": [], "tal": []}
    initial_drop = 0
    for seed in range(5):
        ds, schedule = small_setup(seed=seed)
        for kind in ("ce", "tal"):
            report = train_incremental(
                fresh_state(LOSSES[kind], QUICK, 16, seed), ds, schedule
            )
            task0 = forgetting_curve(report.accuracy_matrix)[0]
            finals[kind].append(task0[-1])
            if kind == "ce" and task0[-1] < task0[0]:
                initial_drop += 1
    assert initial_drop >= 4
    assert np.mean(finals["tal"]) > np.mean(finals["ce"])


def test_class_ages_order():
    _, schedule = small_setup()
    ages = class_ages(schedule)
    assert ages[0] == 4 and ages[1] == 4
    assert ages[8] == 0 and ages[9] == 0
    assert np.all(np.diff(ages[::2]) < 0)


# ---------------------------------------------------------------------------
# lockstep cells
# ---------------------------------------------------------------------------


def bits(value):
    """A report field in a form that compares equal only when the bits do."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return repr(value)  # floats: shortest round-trip, so -0.0 and NaN count too


def report_bits(report):
    return {f.name: bits(getattr(report, f.name)) for f in fields(report)}


def head_bits(classifier):
    return [bits(getattr(classifier, name)) for name in ("w1", "b1", "w", "b")]


LOCKSTEP_CELLS = [
    CE,
    LossBlock(lam=0.99, r=1.0),
    LossBlock(lam=0.995, r=0.5, exploratory=True),
    LossBlock(lam=0.999, r=5.0),
]


@pytest.mark.parametrize("hidden", [0, 8])
def test_lockstep_cells_equal_one_cell_runs_bit_for_bit(hidden):
    ds, schedule = make_gaussian_tasks(
        6, 8, 3, 40, 2.5, 2, test_per_class=20, replay_per_old_class=5
    )

    def states():
        schedule_block = ScheduleBlock(hidden=hidden, lr=0.1, epochs=4, batch_size=16)
        return [fresh_state(loss, schedule_block, 8, 2) for loss in LOCKSTEP_CELLS]

    alone_states, lock_states = states(), states()
    alone_events = [[] for _ in alone_states]
    lock_events = [[] for _ in lock_states]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alone = [
            train_incremental(state, ds, schedule, event_sink=events.append)
            for state, events in zip(alone_states, alone_events)
        ]
        lock = train_cells(
            lock_states, ds, schedule, [events.append for events in lock_events]
        )
    assert [report_bits(r) for r in lock] == [report_bits(r) for r in alone]
    assert [head_bits(s.classifier) for s in lock_states] == [
        head_bits(s.classifier) for s in alone_states
    ]
    assert [bits(tuple(tuple(e.items()) for e in ev)) for ev in lock_events] == [
        bits(tuple(tuple(e.items()) for e in ev)) for ev in alone_events
    ]


def test_lockstep_raises_the_first_failed_cell_in_grid_order():
    # With a huge learning rate a hidden layer's weights grow every step;
    # the larger the initial weights, the sooner the logits overflow.
    ds, schedule = make_gaussian_tasks(
        4, 8, 2, 20, 2.5, 0, test_per_class=10, replay_per_old_class=2
    )

    def states():
        cells = [("ce", 1e60), ("ce", 1e120), ("tal", 1.0)]
        out = []
        for kind, scale in cells:
            state = fresh_state(LOSSES[kind], ScheduleBlock(hidden=4, epochs=3, lr=1e10), 8, 0)
            state.classifier.w1 *= scale
            out.append(state)
        return out

    alone_states, lock_states = states(), states()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        steps = []
        for state in alone_states[:2]:
            with pytest.raises(TrainingError) as err:
                train_incremental(state, ds, schedule)
            steps.append(err.value.step)
        train_incremental(alone_states[2], ds, schedule)
        with pytest.raises(TrainingError) as err:
            train_cells(lock_states, ds, schedule)
    assert steps[1] < steps[0]  # the second cell fails first in time ...
    assert err.value.step == steps[0]  # ... but the first cell's error is raised
    assert str(err.value) == f"training diverged at step {steps[0]}"
    # every cell, failed or not, ends with the weights its own run ends with
    assert [head_bits(s.classifier) for s in lock_states] == [
        head_bits(s.classifier) for s in alone_states
    ]


@pytest.mark.parametrize(
    "change",
    [
        dict(seed=1),
        dict(lr=0.2),
        dict(epochs=2),
        dict(batch_size=16),
        dict(hidden=4),
        dict(dim=6),
    ],
    ids=lambda change: next(iter(change)),
)
def test_lockstep_cells_must_share_the_batch_stream_and_head_shape(change):
    ds, schedule = make_gaussian_tasks(4, 8, 2, 20, 2.5, 0, test_per_class=10)
    base = dict(lr=0.1, epochs=3, batch_size=32, hidden=0)
    other = {"seed": 0, "dim": 8, **base, **change}
    seed, dim = other.pop("seed"), other.pop("dim")
    states = [
        fresh_state(CE, ScheduleBlock(**base), 8, 0),
        fresh_state(TAL, ScheduleBlock(**other), dim, seed),
    ]
    with pytest.raises(DomainError):
        train_cells(states, ds, schedule)
    with pytest.raises(DomainError):
        train_cells([], ds, schedule)


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------


def test_ablation_enumerates_every_cell_with_one_baseline():
    spec = ExperimentSpec(
        dataset=DatasetBlock(per_class=30), schedule=ScheduleBlock(epochs=4), seeds=(0, 1)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = ablate(spec, lambdas=(0.99, 0.995), rs=(0.5, 1.0))
    ce_rows = [r for r in rows if r["loss"] == "ce"]
    tal_rows = [r for r in rows if r["loss"] == "tal"]
    assert len(ce_rows) == 2  # one per seed: a single baseline cell
    assert len(tal_rows) == 2 * 2 * 2
    cells = {(r["lam"], r["r"]) for r in tal_rows}
    assert cells == {(0.99, 0.5), (0.99, 1.0), (0.995, 0.5), (0.995, 1.0)}


def test_steep_weighting_underperforms_linear_at_desk_scale():
    spec = ExperimentSpec(schedule=QUICK, seeds=(0, 1, 2))
    rows = ablate(spec, lambdas=(0.99,), rs=(1.0, 5.0))
    mean_last = {
        r: np.mean([row["a_last"] for row in rows if row["loss"] == "tal" and row["r"] == r])
        for r in (1.0, 5.0)
    }
    assert mean_last[5.0] < mean_last[1.0]
